package takeover_test

import (
	"fmt"
	"os"
	"path/filepath"

	"zdr/internal/takeover"
)

// Example performs a complete in-process Socket Takeover: the "old
// instance" binds two VIPs and serves them on a takeover path; the "new
// instance" connects and receives them; the sockets are never closed.
func Example() {
	old, err := takeover.Listen(
		takeover.VIP{Name: "web", Network: takeover.NetworkTCP, Addr: "127.0.0.1:0"},
		takeover.VIP{Name: "quic", Network: takeover.NetworkUDP, Addr: "127.0.0.1:0"},
	)
	if err != nil {
		panic(err)
	}
	defer old.Close()

	dir, err := os.MkdirTemp("", "takeover-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	srv := &takeover.Server{Set: old}
	if err := srv.Listen(filepath.Join(dir, "takeover.sock")); err != nil {
		panic(err)
	}
	go srv.Serve()

	adopted, res, err := takeover.Connect(filepath.Join(dir, "takeover.sock"), takeover.ReceiveOptions{})
	if err != nil {
		panic(err)
	}
	defer adopted.Close()

	fmt.Println("vips:", len(res.VIPs))
	fmt.Println("orphans:", res.OrphanedFDs)
	fmt.Println("same address:", adopted.TCP("web").Addr().String() == old.TCP("web").Addr().String())
	// Output:
	// vips: 2
	// orphans: 0
	// same address: true
}
