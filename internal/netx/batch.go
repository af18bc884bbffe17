// Batched-syscall UDP: recvmmsg(2)/sendmmsg(2) rings behind a
// net.PacketConn, so a router draining a burst pays one syscall per
// batch instead of one per packet in each direction.
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
package netx

import (
	"encoding/binary"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"zdr/internal/bufpool"
	"zdr/internal/metrics"
)

// Batch sizing defaults. 64-entry rings match the burst sizes the quicx
// router sees under load; per-packet buffers cover a full datagram.
const (
	DefaultRecvBatch = 64
	DefaultSendBatch = 64
	DefaultMaxPacket = 64 << 10
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

// Message is one received datagram. Buf aliases the ring buffer and Addr
// may be shared across messages: both are valid only until the next
// ReadBatch call on the same conn.
type Message struct {
	Buf  []byte
	Addr net.Addr
}

// BatchConfig configures a BatchPacketConn. Zero values take the
// defaults above.
type BatchConfig struct {
	RecvBatch int // mmsghdr ring entries per recvmmsg
	SendBatch int // queued datagrams before an automatic flush
	MaxPacket int // per-datagram buffer size
	// Registry+Prefix name the accounting counters (e.g. prefix
	// "quicx.batch" yields quicx.batch.recvmmsg_calls etc.). A nil
	// Registry keeps private counters readable via Stats.
	Registry *metrics.Registry
	Prefix   string
	// DisableKernelBatch forces the one-syscall-per-packet fallback even
	// on a real UDP socket — the before/after lever for benchmarks.
	DisableKernelBatch bool
}

// BatchStats is a point-in-time copy of one conn's batch counters.
type BatchStats struct {
	RecvCalls   int64 // recvmmsg invocations (or fallback ReadFrom calls)
	RecvPkts    int64 // datagrams received
	SendFlushes int64 // sendmmsg invocations (or fallback WriteTo calls)
	SendPkts    int64 // datagrams sent
}

// BatchPacketConn wraps a net.PacketConn with recvmmsg/sendmmsg rings.
// ReadBatch is single-caller (one read loop per conn, the quicx
// ownership rule); QueueTo/Flush are safe for concurrent use — the VIP
// sender is shared by the main and forward read loops.
type BatchPacketConn struct {
	pc  net.PacketConn
	raw syscall.RawConn // nil → fallback path
	max int

	// receive ring (single reader, no lock)
	rmsgs  []mmsghdr
	rbufs  []*[]byte
	riovs  []syscall.Iovec
	rnames [][]byte
	msgs   []Message
	rfall  *[]byte // fallback read buffer
	acache map[string]*net.UDPAddr

	// send ring
	smu    sync.Mutex
	smsgs  []mmsghdr
	sbufs  []*[]byte
	siovs  []syscall.Iovec
	snames [][]byte
	queued int

	// The RawConn callbacks, bound once, and the syscall results they
	// leave behind: a closure built per call captures its results by
	// reference and costs an allocation per ReadBatch and per flush.
	// recv* belong to the single reader, send* are guarded by smu.
	recvFn, sendFn   func(fd uintptr) bool
	recvN, sendN     uintptr
	recvErr, sendErr syscall.Errno
	sendFirst        int // first unsent ring slot of the flush in progress

	cRecvCalls *metrics.Counter
	cRecvPkts  *metrics.Counter
	cSendFlush *metrics.Counter
	cSendPkts  *metrics.Counter
	gPktsPer   *metrics.Gauge // cumulative pkts-per-recvmmsg, milli-units
}

// NewBatchPacketConn wraps pc. Kernel batching engages only when pc
// exposes a raw descriptor and DisableKernelBatch is unset.
func NewBatchPacketConn(pc net.PacketConn, cfg BatchConfig) *BatchPacketConn {
	if cfg.RecvBatch <= 0 {
		cfg.RecvBatch = DefaultRecvBatch
	}
	if cfg.SendBatch <= 0 {
		cfg.SendBatch = DefaultSendBatch
	}
	if cfg.MaxPacket <= 0 {
		cfg.MaxPacket = DefaultMaxPacket
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "netx.batch"
	}
	b := &BatchPacketConn{
		pc:         pc,
		max:        cfg.MaxPacket,
		acache:     make(map[string]*net.UDPAddr),
		cRecvCalls: cfg.Registry.Counter(cfg.Prefix + ".recvmmsg_calls"),
		cRecvPkts:  cfg.Registry.Counter(cfg.Prefix + ".recvmmsg_pkts"),
		cSendFlush: cfg.Registry.Counter(cfg.Prefix + ".sendmmsg_flushes"),
		cSendPkts:  cfg.Registry.Counter(cfg.Prefix + ".sendmmsg_pkts"),
		gPktsPer:   cfg.Registry.Gauge(cfg.Prefix + ".pkts_per_recvmmsg"),
	}
	if !cfg.DisableKernelBatch {
		if sc, ok := pc.(syscall.Conn); ok {
			if rc, err := sc.SyscallConn(); err == nil {
				b.raw = rc
			}
		}
	}
	if b.raw == nil {
		b.rfall = bufpool.Get(cfg.MaxPacket)
		return b
	}
	b.recvFn, b.sendFn = b.recvmmsg, b.sendmmsg
	// Ring slots are wired once: each msghdr points at its permanent
	// iovec, buffer and sockaddr scratch; only lengths change per call.
	b.rmsgs = make([]mmsghdr, cfg.RecvBatch)
	b.rbufs = make([]*[]byte, cfg.RecvBatch)
	b.riovs = make([]syscall.Iovec, cfg.RecvBatch)
	b.rnames = make([][]byte, cfg.RecvBatch)
	b.msgs = make([]Message, 0, cfg.RecvBatch)
	for i := range b.rmsgs {
		b.rbufs[i] = bufpool.Get(cfg.MaxPacket)
		b.rnames[i] = make([]byte, sockaddrBufLen)
		b.riovs[i].Base = &(*b.rbufs[i])[0]
		b.riovs[i].SetLen(cfg.MaxPacket)
		b.rmsgs[i].hdr.Name = &b.rnames[i][0]
		b.rmsgs[i].hdr.Iov = &b.riovs[i]
		b.rmsgs[i].hdr.Iovlen = 1
	}
	b.smsgs = make([]mmsghdr, cfg.SendBatch)
	b.sbufs = make([]*[]byte, cfg.SendBatch)
	b.siovs = make([]syscall.Iovec, cfg.SendBatch)
	b.snames = make([][]byte, cfg.SendBatch)
	for i := range b.smsgs {
		b.sbufs[i] = bufpool.Get(cfg.MaxPacket)
		b.snames[i] = make([]byte, sockaddrBufLen)
		b.siovs[i].Base = &(*b.sbufs[i])[0]
		b.smsgs[i].hdr.Name = &b.snames[i][0]
		b.smsgs[i].hdr.Iov = &b.siovs[i]
		b.smsgs[i].hdr.Iovlen = 1
	}
	return b
}

// Batched reports whether the kernel recvmmsg/sendmmsg path is active.
func (b *BatchPacketConn) Batched() bool { return b.raw != nil }

// Stats snapshots the conn's batch counters.
func (b *BatchPacketConn) Stats() BatchStats {
	return BatchStats{
		RecvCalls:   b.cRecvCalls.Value(),
		RecvPkts:    b.cRecvPkts.Value(),
		SendFlushes: b.cSendFlush.Value(),
		SendPkts:    b.cSendPkts.Value(),
	}
}

// ReadBatch blocks until at least one datagram is available and returns
// every datagram the kernel had queued, up to the ring size. Returned
// Messages alias ring memory: they are valid only until the next
// ReadBatch. Deadline and close errors surface exactly as ReadFrom's do.
func (b *BatchPacketConn) ReadBatch() ([]Message, error) {
	if b.raw == nil {
		n, from, err := b.pc.ReadFrom(*b.rfall)
		if err != nil {
			return nil, err
		}
		b.cRecvCalls.Inc()
		b.cRecvPkts.Inc()
		b.updateRatio()
		b.msgs = append(b.msgs[:0], Message{Buf: (*b.rfall)[:n], Addr: from})
		return b.msgs, nil
	}
	for i := range b.rmsgs {
		b.rmsgs[i].hdr.Namelen = sockaddrBufLen
		b.rmsgs[i].n = 0
	}
	if err := b.raw.Read(b.recvFn); err != nil {
		return nil, err
	}
	if b.recvErr != 0 {
		return nil, os.NewSyscallError("recvmmsg", b.recvErr)
	}
	b.cRecvCalls.Inc()
	b.cRecvPkts.Add(int64(b.recvN))
	b.updateRatio()
	b.msgs = b.msgs[:0]
	for i := 0; i < int(b.recvN); i++ {
		m := &b.rmsgs[i]
		b.msgs = append(b.msgs, Message{
			Buf:  (*b.rbufs[i])[:m.n],
			Addr: b.parseAddr(b.rnames[i][:m.hdr.Namelen]),
		})
	}
	return b.msgs, nil
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg over
// the whole ring, reporting "not ready" on EAGAIN so the poller parks the
// reader.
func (b *BatchPacketConn) recvmmsg(fd uintptr) bool {
	for {
		b.recvN, _, b.recvErr = syscall.Syscall6(syscall.SYS_RECVMMSG,
			fd, uintptr(unsafe.Pointer(&b.rmsgs[0])), uintptr(len(b.rmsgs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if b.recvErr != syscall.EINTR {
			return b.recvErr != syscall.EAGAIN
		}
	}
}

// updateRatio publishes the cumulative packets-per-recvmmsg ratio in
// milli-units (1000 = one packet per syscall).
func (b *BatchPacketConn) updateRatio() {
	if calls := b.cRecvCalls.Value(); calls > 0 {
		b.gPktsPer.Set(b.cRecvPkts.Value() * 1000 / calls)
	}
}

// parseAddr converts a raw kernel sockaddr to *net.UDPAddr through a
// bounded cache, so steady-state traffic from known peers allocates
// nothing per packet.
func (b *BatchPacketConn) parseAddr(raw []byte) net.Addr {
	if len(raw) < 4 {
		return nil
	}
	if a, ok := b.acache[string(raw)]; ok {
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
	if len(b.acache) >= addrCacheLimit {
		clear(b.acache)
	}
	b.acache[string(raw)] = a
	return a
}

// QueueTo stages one datagram for addr, flushing automatically when the
// ring fills. On the fallback path (or for addresses sendmmsg cannot
// encode) it degrades to an immediate WriteTo, preserving one-write-per-
// packet semantics for interposed wrappers. The payload is copied; the
// caller keeps ownership of p.
func (b *BatchPacketConn) QueueTo(p []byte, addr net.Addr) error {
	if b.raw == nil || len(p) > b.max {
		return b.writeDirect(p, addr)
	}
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return b.writeDirect(p, addr)
	}
	b.smu.Lock()
	defer b.smu.Unlock()
	if b.queued == len(b.smsgs) {
		if err := b.flushLocked(); err != nil {
			return err
		}
	}
	i := b.queued
	nameLen, ok := putSockaddr(b.snames[i], ua)
	if !ok {
		return b.writeDirect(p, addr)
	}
	copy(*b.sbufs[i], p)
	b.siovs[i].SetLen(len(p))
	b.smsgs[i].hdr.Namelen = uint32(nameLen)
	b.queued++
	return nil
}

func (b *BatchPacketConn) writeDirect(p []byte, addr net.Addr) error {
	_, err := b.pc.WriteTo(p, addr)
	if err == nil {
		b.cSendFlush.Inc()
		b.cSendPkts.Inc()
	}
	return err
}

// Flush sends every queued datagram. Call after draining a burst; a
// no-op when nothing is queued.
func (b *BatchPacketConn) Flush() error {
	if b.raw == nil {
		return nil
	}
	b.smu.Lock()
	defer b.smu.Unlock()
	return b.flushLocked()
}

func (b *BatchPacketConn) flushLocked() error {
	for b.sendFirst = 0; b.sendFirst < b.queued; b.sendFirst += int(b.sendN) {
		if err := b.raw.Write(b.sendFn); err != nil {
			b.queued = 0
			return err
		}
		if b.sendErr != 0 {
			b.queued = 0
			return os.NewSyscallError("sendmmsg", b.sendErr)
		}
		b.cSendFlush.Inc()
		b.cSendPkts.Add(int64(b.sendN))
	}
	b.queued = 0
	return nil
}

// sendmmsg is the RawConn.Write callback: one non-blocking sendmmsg of
// ring slots [sendFirst, queued). Caller (through flushLocked) holds smu.
func (b *BatchPacketConn) sendmmsg(fd uintptr) bool {
	for {
		b.sendN, _, b.sendErr = syscall.Syscall6(sysSendmmsg,
			fd, uintptr(unsafe.Pointer(&b.smsgs[b.sendFirst])), uintptr(b.queued-b.sendFirst),
			syscall.MSG_DONTWAIT, 0, 0)
		if b.sendErr != syscall.EINTR {
			return b.sendErr != syscall.EAGAIN
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

// Release flushes pending sends and returns ring buffers to the pool.
// It does not close the wrapped conn — the caller owns its lifecycle
// (across Socket Takeover the socket outlives any one generation's
// rings, which follow their read loop).
func (b *BatchPacketConn) Release() {
	b.Flush()
	for _, p := range b.rbufs {
		bufpool.Put(p)
	}
	b.rbufs = nil
	b.smu.Lock()
	for _, p := range b.sbufs {
		bufpool.Put(p)
	}
	b.sbufs = nil
	b.queued = 0
	b.smu.Unlock()
	bufpool.Put(b.rfall)
	b.rfall = nil
}
