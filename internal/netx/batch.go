// Batched-syscall UDP: a recvmmsg(2) ring and a sendmmsg(2) ring behind
// a net.PacketConn, so a router draining a burst pays one syscall per
// batch instead of one per packet in each direction. A user builds the
// direction it uses: a read loop a RecvRing, a sender a SendRing.
//
// The kernel path engages only when the wrapped conn exposes its raw
// descriptor (syscall.Conn — a real *net.UDPConn does, fault-injection
// wrappers deliberately do not). Everything else takes a one-packet
// fallback through the conn's own ReadFrom/WriteTo, so interposed
// wrappers keep seeing every datagram — the same selective split the
// TCP relay selector applies (splice.go).
//
// Kernel reads run inside syscall.RawConn.Read callbacks: the runtime
// poller still owns readiness and deadlines, so SetReadDeadline poisoning
// — how quicx kicks a blocked VIP reader at drain time — interrupts a
// batched read exactly like a plain one, surfacing as a net.Error
// timeout.
//
// A ring owns its memory: one slab of slots and one of sockaddr scratch,
// made with the ring and dropped with it, nothing borrowed from bufpool.
package netx

import (
	"encoding/binary"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"zdr/internal/metrics"
)

// Batch sizing defaults. 64-entry rings match the burst sizes the quicx
// router sees under load.
const (
	defaultRecvBatch = 64
	defaultSendBatch = 64
)

// ringSlot is the slot size a ring starts with: an MTU-sized datagram
// plus quicx's forward encapsulation. A receive ring that meets a longer
// datagram grows its slots (RecvRing.take), up to maxPacket, which covers
// a full datagram; a send ring writes one through.
const (
	ringSlot  = 2 << 10
	maxPacket = 64 << 10
)

// sockaddrBufLen fits any sockaddr the kernel writes (RawSockaddrAny).
const sockaddrBufLen = 128

// addrCacheLimit bounds the sockaddr→UDPAddr parse cache; beyond it the
// cache resets (steady state has far fewer distinct peers per socket).
const addrCacheLimit = 1024

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-reported
// per-message byte count.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// Message is one received datagram. Buf aliases the ring's slab and Addr
// may be shared across messages: both are valid only until the next
// ReadBatch call on the same ring.
type Message struct {
	Buf  []byte
	Addr net.Addr
}

// BatchConfig configures a ring. Zero values take the defaults above.
type BatchConfig struct {
	recvBatch int // mmsghdr ring entries per recvmmsg
	sendBatch int // queued datagrams before an automatic flush
	// Registry+Prefix name the accounting counters (e.g. prefix
	// "quicx.batch" yields quicx.batch.recvmmsg_calls etc.). A nil
	// Registry keeps private counters readable via Stats.
	Registry *metrics.Registry
	Prefix   string
}

// open fills in cfg's defaults and returns pc's raw descriptor, nil when
// the ring is to take the fallback path.
func (cfg *BatchConfig) open(pc net.PacketConn) syscall.RawConn {
	if cfg.recvBatch <= 0 {
		cfg.recvBatch = defaultRecvBatch
	}
	if cfg.sendBatch <= 0 {
		cfg.sendBatch = defaultSendBatch
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "netx.batch"
	}
	if sc, ok := pc.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			return rc
		}
	}
	return nil
}

// newSlots makes the n slots of a ring, wired once: each msghdr points at
// its permanent iovec and sockaddr scratch. The ring points the iovecs
// at its slab.
func newSlots(n int) (hdrs []mmsghdr, iovs []syscall.Iovec, names []byte) {
	hdrs, iovs, names = make([]mmsghdr, n), make([]syscall.Iovec, n), make([]byte, n*sockaddrBufLen)
	for i := range hdrs {
		hdrs[i].hdr.Name = &names[i*sockaddrBufLen]
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	return hdrs, iovs, names
}

// RecvRing reads a net.PacketConn a batch at a time. ReadBatch is
// single-caller (one read loop per conn, the quicx ownership rule).
type RecvRing struct {
	pc  net.PacketConn
	raw syscall.RawConn // nil → fallback path
	// Slots are slot bytes now, want bytes from the next ReadBatch on and
	// never more than maxPacket.
	slot, want int

	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	slab   []byte // len(hdrs) slots; on the fallback path one slot and a byte
	names  []byte // sockaddrBufLen of scratch per slot
	msgs   []Message
	acache map[string]*net.UDPAddr

	// The RawConn callback, bound once, and the syscall results it leaves
	// behind: a closure built per call captures its results by reference
	// and costs an allocation per ReadBatch.
	recvFn  func(fd uintptr) bool
	recvN   uintptr
	recvErr syscall.Errno

	cCalls, cPkts, cTrunc *metrics.Counter
	gPktsPer              *metrics.Gauge // cumulative pkts-per-recvmmsg, milli-units
}

// NewRecvRing wraps pc's read side. Kernel batching engages only when pc
// exposes a raw descriptor.
func NewRecvRing(pc net.PacketConn, cfg BatchConfig) *RecvRing {
	r := &RecvRing{pc: pc, raw: cfg.open(pc)}
	r.cCalls = cfg.Registry.Counter(cfg.Prefix + ".recvmmsg_calls")
	r.cPkts = cfg.Registry.Counter(cfg.Prefix + ".recvmmsg_pkts")
	r.cTrunc = cfg.Registry.Counter(cfg.Prefix + ".truncated")
	r.gPktsPer = cfg.Registry.Gauge(cfg.Prefix + ".pkts_per_recvmmsg")
	n := 1
	if r.raw != nil {
		n = cfg.recvBatch
		r.recvFn = r.recvmmsg
		r.hdrs, r.iovs, r.names = newSlots(n)
	}
	r.msgs = make([]Message, 0, n)
	r.reslab(ringSlot)
	return r
}

// reslab gives the ring a slab of slot-byte slots. It runs between
// ReadBatch calls, when the Messages over the old slab are void.
func (r *RecvRing) reslab(slot int) {
	r.slot, r.want = slot, slot
	if r.raw == nil {
		// One byte over: a ReadFrom that fills it was cut short.
		r.slab = make([]byte, slot+1)
		return
	}
	r.slab = make([]byte, len(r.hdrs)*slot)
	for i := range r.iovs {
		r.iovs[i].Base = &r.slab[i*slot]
		r.iovs[i].SetLen(slot)
	}
}

// ReadBatch blocks until at least one datagram is available and returns
// every datagram the kernel had queued, up to the ring size. Returned
// Messages alias ring memory: they are valid only until the next
// ReadBatch. Deadline and close errors surface exactly as ReadFrom's do.
// A datagram longer than a slot is dropped and counted (take), so a batch
// of nothing else is read past.
func (r *RecvRing) ReadBatch() ([]Message, error) {
	for {
		if r.want > r.slot {
			r.reslab(r.want)
		}
		r.msgs = r.msgs[:0]
		if r.raw == nil {
			n, from, err := r.pc.ReadFrom(r.slab)
			if err != nil {
				return nil, err
			}
			r.cCalls.Inc()
			r.cPkts.Inc()
			r.take(r.slab, n, from)
		} else {
			for i := range r.hdrs {
				r.hdrs[i].hdr.Namelen = sockaddrBufLen
				r.hdrs[i].n = 0
			}
			if err := r.raw.Read(r.recvFn); err != nil {
				return nil, err
			}
			if r.recvErr != 0 {
				return nil, os.NewSyscallError("recvmmsg", r.recvErr)
			}
			r.cCalls.Inc()
			r.cPkts.Add(int64(r.recvN))
			for i := 0; i < int(r.recvN); i++ {
				m := &r.hdrs[i]
				name := r.names[i*sockaddrBufLen:][:m.hdr.Namelen]
				r.take(r.slab[i*r.slot:], int(m.n), r.parseAddr(name))
			}
		}
		r.updateRatio()
		if len(r.msgs) > 0 {
			return r.msgs, nil
		}
	}
}

// take adds a datagram of n bytes, received into buf, to the batch —
// unless n is more than a slot holds (the kernel reports the real length
// under MSG_TRUNC, the fallback a byte over): what was received is then
// the datagram's head, which is counted and dropped, never delivered
// short, and the next slab is sized for the next power of two that fits
// n, up to maxPacket.
func (r *RecvRing) take(buf []byte, n int, from net.Addr) {
	if n <= r.slot {
		r.msgs = append(r.msgs, Message{Buf: buf[:n:n], Addr: from})
		return
	}
	r.cTrunc.Inc()
	for r.want < n && r.want < maxPacket {
		r.want = min(2*r.want, maxPacket)
	}
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg over
// the whole ring, reporting "not ready" on EAGAIN so the poller parks the
// reader.
func (r *RecvRing) recvmmsg(fd uintptr) bool {
	for {
		r.recvN, _, r.recvErr = syscall.Syscall6(syscall.SYS_RECVMMSG,
			fd, uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
			syscall.MSG_DONTWAIT|syscall.MSG_TRUNC, 0, 0)
		if r.recvErr != syscall.EINTR {
			return r.recvErr != syscall.EAGAIN
		}
	}
}

// updateRatio publishes the cumulative packets-per-recvmmsg ratio in
// milli-units (1000 = one packet per syscall).
func (r *RecvRing) updateRatio() {
	if calls := r.cCalls.Value(); calls > 0 {
		r.gPktsPer.Set(r.cPkts.Value() * 1000 / calls)
	}
}

// parseAddr converts a raw kernel sockaddr to *net.UDPAddr through a
// bounded cache, so steady-state traffic from known peers allocates
// nothing per packet.
func (r *RecvRing) parseAddr(raw []byte) net.Addr {
	if len(raw) < 4 {
		return nil
	}
	if a, ok := r.acache[string(raw)]; ok {
		return a
	}
	var a *net.UDPAddr
	switch fam := *(*uint16)(unsafe.Pointer(&raw[0])); fam {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&raw[0]))
		a = &net.UDPAddr{
			IP:   net.IPv4(sa.Addr[0], sa.Addr[1], sa.Addr[2], sa.Addr[3]),
			Port: int(binary.BigEndian.Uint16(raw[2:4])),
		}
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&raw[0]))
		ip := make(net.IP, 16)
		copy(ip, sa.Addr[:])
		a = &net.UDPAddr{IP: ip, Port: int(binary.BigEndian.Uint16(raw[2:4]))}
	default:
		return nil
	}
	if r.acache == nil || len(r.acache) >= addrCacheLimit {
		r.acache = make(map[string]*net.UDPAddr)
	}
	r.acache[string(raw)] = a
	return a
}

// Release drops the ring's memory. It does not close the wrapped conn —
// the caller owns its lifecycle (across Socket Takeover the socket
// outlives any one generation's rings, which follow their read loop).
func (r *RecvRing) Release() {
	r.hdrs, r.iovs, r.slab, r.names, r.msgs, r.acache = nil, nil, nil, nil, nil, nil
}

// SendRing stages datagrams for a net.PacketConn and sends them a batch
// at a time. QueueTo and Flush are safe for concurrent use — the VIP
// sender is shared by the main and forward read loops.
type SendRing struct {
	pc   net.PacketConn
	raw  syscall.RawConn // nil → fallback path
	slot int

	mu     sync.Mutex
	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	slab   []byte // len(hdrs) slots
	names  []byte // sockaddrBufLen of scratch per slot
	queued int

	// As RecvRing's; guarded by mu. first is the first unsent slot of the
	// flush in progress.
	sendFn  func(fd uintptr) bool
	sendN   uintptr
	sendErr syscall.Errno
	first   int

	cFlush, cPkts *metrics.Counter
}

// NewSendRing wraps pc's write side; the kernel path engages as for
// NewRecvRing.
func NewSendRing(pc net.PacketConn, cfg BatchConfig) *SendRing {
	s := &SendRing{pc: pc, raw: cfg.open(pc), slot: ringSlot}
	s.cFlush = cfg.Registry.Counter(cfg.Prefix + ".sendmmsg_flushes")
	s.cPkts = cfg.Registry.Counter(cfg.Prefix + ".sendmmsg_pkts")
	if s.raw == nil {
		return s
	}
	s.sendFn = s.sendmmsg
	s.hdrs, s.iovs, s.names = newSlots(cfg.sendBatch)
	s.slab = make([]byte, cfg.sendBatch*s.slot)
	for i := range s.iovs {
		s.iovs[i].Base = &s.slab[i*s.slot]
	}
	return s
}

// QueueTo stages one datagram for addr, flushing automatically when the
// ring fills. On the fallback path it degrades to an immediate WriteTo,
// preserving one-write-per-packet semantics for interposed wrappers; a
// datagram longer than a slot, or for an address sendmmsg cannot encode,
// is written the same way once what was queued before it has gone out.
// The payload is copied; the caller keeps ownership of p.
func (s *SendRing) QueueTo(p []byte, addr net.Addr) error {
	if s.raw == nil {
		return s.writeDirect(p, addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ua, ok := addr.(*net.UDPAddr); ok && len(p) <= s.slot {
		if s.queued == len(s.hdrs) {
			if err := s.flushLocked(); err != nil {
				return err
			}
		}
		i := s.queued
		if nameLen, ok := putSockaddr(s.names[i*sockaddrBufLen:], ua); ok {
			copy(s.slab[i*s.slot:], p)
			s.iovs[i].SetLen(len(p))
			s.hdrs[i].hdr.Namelen = uint32(nameLen)
			s.queued++
			return nil
		}
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.writeDirect(p, addr)
}

func (s *SendRing) writeDirect(p []byte, addr net.Addr) error {
	_, err := s.pc.WriteTo(p, addr)
	if err == nil {
		s.cFlush.Inc()
		s.cPkts.Inc()
	}
	return err
}

// Flush sends every queued datagram. Call after draining a burst; a
// no-op when nothing is queued.
func (s *SendRing) Flush() error {
	if s.raw == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *SendRing) flushLocked() error {
	for s.first = 0; s.first < s.queued; s.first += int(s.sendN) {
		if err := s.raw.Write(s.sendFn); err != nil {
			s.queued = 0
			return err
		}
		if s.sendErr != 0 {
			s.queued = 0
			return os.NewSyscallError("sendmmsg", s.sendErr)
		}
		s.cFlush.Inc()
		s.cPkts.Add(int64(s.sendN))
	}
	s.queued = 0
	return nil
}

// sendmmsg is the RawConn.Write callback: one non-blocking sendmmsg of
// ring slots [first, queued). Caller (through flushLocked) holds mu.
func (s *SendRing) sendmmsg(fd uintptr) bool {
	for {
		s.sendN, _, s.sendErr = syscall.Syscall6(sysSendmmsg,
			fd, uintptr(unsafe.Pointer(&s.hdrs[s.first])), uintptr(s.queued-s.first),
			syscall.MSG_DONTWAIT, 0, 0)
		if s.sendErr != syscall.EINTR {
			return s.sendErr != syscall.EAGAIN
		}
	}
}

// putSockaddr encodes ua into buf, returning the sockaddr length.
func putSockaddr(buf []byte, ua *net.UDPAddr) (int, bool) {
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&buf[0]))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		copy(sa.Addr[:], ip4)
		binary.BigEndian.PutUint16(buf[2:4], uint16(ua.Port))
		return syscall.SizeofSockaddrInet4, true
	}
	if ip6 := ua.IP.To16(); ip6 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&buf[0]))
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		copy(sa.Addr[:], ip6)
		binary.BigEndian.PutUint16(buf[2:4], uint16(ua.Port))
		return syscall.SizeofSockaddrInet6, true
	}
	return 0, false
}

// Release flushes pending sends and drops the ring's memory; the conn
// stays the caller's, as for RecvRing.Release. The ring is not used
// again.
func (s *SendRing) Release() {
	s.Flush()
	s.mu.Lock()
	s.hdrs, s.iovs, s.slab, s.names = nil, nil, nil, nil
	s.mu.Unlock()
}
