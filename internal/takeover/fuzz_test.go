package takeover

import (
	"sync"
	"testing"
	"time"

	"zdr/internal/netx"
)

// FuzzManifest throws bytes at the one parser that is handed file
// descriptors. stream is everything the peer ever writes, played into one
// end of a socketpair and followed by a hang-up; nfds%4 descriptors of a
// live listener ride in with its first byte, as a sender's would with its
// manifest. Receive on the other end must return — never panic, never
// outlast its timeout by more than scheduling — and whatever it made of
// the bytes, every descriptor the exchange created must be closed again:
// the process's open-fd count is back where it was. The seed corpus is
// testdata/fuzz/FuzzManifest, one file per case, named for it.
func FuzzManifest(f *testing.F) {
	ln, err := netx.ListenTCPReusePort("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, stream []byte, nfds uint8) {
		before := countOpenFDs(t)
		a, b, err := netx.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		var peer sync.WaitGroup
		peer.Add(1)
		go func() {
			defer peer.Done()
			defer a.CloseWrite()
			if len(stream) == 0 {
				return
			}
			var fds []int
			for i := 0; i < int(nfds%4); i++ {
				fd, err := netx.ListenerFD(ln)
				if err != nil {
					t.Error(err)
					break
				}
				fds = append(fds, fd)
			}
			// Errors past this point are the receiver hanging up early.
			if netx.WriteFDs(a, stream[:1], fds) == nil {
				a.Write(stream[1:])
			}
			closeFDs(fds)
		}()

		start := time.Now()
		set, _, err := Receive(b, ReceiveOptions{Timeout: 250 * time.Millisecond})
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("Receive took %v against a 250ms timeout", took)
		}
		if err == nil {
			set.Close()
		}
		b.Close() // unblocks a peer still writing
		peer.Wait()
		a.Close()
		if after := waitFDCount(t, before); after != before {
			t.Fatalf("open fds: %d before, %d after (Receive: %v)", before, after, err)
		}
	})
}
