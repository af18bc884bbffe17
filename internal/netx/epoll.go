package netx

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"zdr/internal/metrics"
)

// EventLoop is a readiness loop over raw epoll(7) for idle-heavy tiers:
// a mostly-idle connection costs one compact watch record in the loop
// instead of a parked goroutine with its stack. The MQTT broker and the
// Edge listeners register each parked connection here and only spend a
// worker goroutine while the connection is actually readable.
//
// Design (DESIGN.md §11):
//
//   - One poller goroutine blocks in syscall.EpollWait; ready events are
//     handed to a small worker pool over a channel, so a slow handler
//     never stalls the poller for longer than the channel send.
//   - Registrations are EPOLLONESHOT: after an event fires, the kernel
//     disarms the watch until the handler re-arms it. A watch therefore
//     never runs its handler concurrently with itself, which is what lets
//     handlers own the connection without extra locking.
//   - epoll_event carries a loop-assigned 64-bit token, not the fd. FD
//     numbers are recycled by the kernel the moment a connection closes;
//     a token is never reused, so a stale event left in the kernel queue
//     from a closed watch cannot be mis-delivered to whatever connection
//     inherited the fd number (the classic epoll ABA hazard).
//   - The loop never dups descriptors. Interest is registered through
//     syscall.Conn.Control, which pins the fd without touching its
//     flags (see dupSocketFD for why File()/Fd() is forbidden here), and
//     closing the connection makes the kernel drop the registration with
//     it. This is also what makes hand-off composable: a listener's fd
//     set is per-process epoll state, so after Socket Takeover the
//     receiving instance re-registers the adopted sockets in its own
//     loop — epoll interest is deliberately NOT part of the transferred
//     state.
type EventLoop struct {
	epfd  int
	wakeR int // read end of the wake pipe, registered as wakeToken
	wakeW int // written to by Close to unblock EpollWait

	mu      sync.Mutex
	watches map[uint64]*Watch
	next    uint64 // token allocator; wakeToken (0) is never assigned
	closed  bool

	ready chan readyEvent
	wg    sync.WaitGroup

	gWatched *metrics.Gauge
	cEvents  *metrics.Counter
	cHangups *metrics.Counter
	cWakeups *metrics.Counter
	cStale   *metrics.Counter
}

// wakeToken is the reserved token for the wake pipe.
const wakeToken = 0

type readyEvent struct {
	w  *Watch
	ev Readiness
}

// Readiness describes why a watch fired.
type Readiness struct {
	// Readable: data (or a pending accept) is available.
	Readable bool
	// HangUp: the peer closed (EPOLLRDHUP/EPOLLHUP/EPOLLERR). For parked
	// idle connections this is the reap signal.
	HangUp bool
}

// Watch is one registered connection. The handler receives the watch
// itself (events can be delivered before the registering Watch call
// returns, so closing over the returned value would race) and its
// Readiness; it must finish by either re-arming (Rearm) to keep watching
// or cancelling (Cancel) to stop. Until one of those happens the kernel
// keeps the watch disarmed (EPOLLONESHOT), so the handler never races
// itself.
type Watch struct {
	loop    *EventLoop
	conn    syscall.Conn
	fn      func(*Watch, Readiness)
	token   uint64
	stopped atomic.Bool
	// rearms is what orders one handler call before the next where the
	// memory model and the race detector can see it: the kernel orders
	// them too, and tells neither. It is what lets a handler keep state
	// between its calls without a lock.
	rearms atomic.Uint32
}

// EventLoopConfig tunes NewEventLoop.
type EventLoopConfig struct {
	// Workers is the handler pool size (default: GOMAXPROCS, min 2).
	Workers int
	// Registry receives the loop's telemetry (nil = private registry).
	Registry *metrics.Registry
}

// NewEventLoop creates the epoll instance, wake pipe, poller goroutine,
// and worker pool.
func NewEventLoop(cfg EventLoopConfig) (*EventLoop, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("netx: epoll_create1: %w", err)
	}
	var pipeFDs [2]int
	if err := syscall.Pipe2(pipeFDs[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("netx: wake pipe: %w", err)
	}
	l := &EventLoop{
		epfd:     epfd,
		wakeR:    pipeFDs[0],
		wakeW:    pipeFDs[1],
		watches:  make(map[uint64]*Watch),
		next:     wakeToken + 1,
		ready:    make(chan readyEvent, 4*workers),
		gWatched: reg.Gauge("netx.eventloop.watched"),
		cEvents:  reg.Counter("netx.eventloop.events"),
		cHangups: reg.Counter("netx.eventloop.hangups"),
		cWakeups: reg.Counter("netx.eventloop.wakeups"),
		cStale:   reg.Counter("netx.eventloop.stale_events"),
	}
	wakeEv := syscall.EpollEvent{Events: syscall.EPOLLIN}
	putToken(&wakeEv, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, l.wakeR, &wakeEv); err != nil {
		l.closeFDs()
		return nil, fmt.Errorf("netx: register wake pipe: %w", err)
	}
	l.wg.Add(1 + workers)
	go l.pollLoop()
	for i := 0; i < workers; i++ {
		go l.workerLoop()
	}
	return l, nil
}

// putToken/getToken pack the watch token into epoll_event's data field
// (exposed by the syscall package as the Fd/Pad int32 pair).
func putToken(ev *syscall.EpollEvent, token uint64) {
	ev.Fd = int32(uint32(token))
	ev.Pad = int32(uint32(token >> 32))
}

func getToken(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

// watchEvents is the interest set: readable, peer-closed, oneshot.
const watchEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT

// ErrLoopClosed is returned by Watch after Close.
var ErrLoopClosed = errors.New("netx: event loop closed")

// Watch registers conn and invokes fn (on a pool worker) whenever the
// connection becomes readable or the peer hangs up. conn may be any
// socket-backed value — *net.TCPConn, *net.TCPListener (readable =
// pending accept), *net.UnixConn. The registration is oneshot: fn must
// end with w.Rearm() or w.Cancel().
func (l *EventLoop) Watch(conn syscall.Conn, fn func(w *Watch, r Readiness)) (*Watch, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLoopClosed
	}
	token := l.next
	l.next++
	w := &Watch{loop: l, conn: conn, fn: fn, token: token}
	l.watches[token] = w
	l.mu.Unlock()

	if err := l.ctl(conn, syscall.EPOLL_CTL_ADD, token); err != nil {
		l.mu.Lock()
		delete(l.watches, token)
		l.mu.Unlock()
		return nil, err
	}
	l.gWatched.Inc()
	return w, nil
}

// ctl runs one EPOLL_CTL op against conn's fd with the fd pinned.
func (l *EventLoop) ctl(conn syscall.Conn, op int, token uint64) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return fmt.Errorf("netx: SyscallConn: %w", err)
	}
	var ctlErr error
	if err := rc.Control(func(fd uintptr) {
		ev := syscall.EpollEvent{Events: watchEvents}
		putToken(&ev, token)
		ctlErr = syscall.EpollCtl(l.epfd, op, int(fd), &ev)
	}); err != nil {
		return fmt.Errorf("netx: control: %w", err)
	}
	if ctlErr != nil {
		return fmt.Errorf("netx: epoll_ctl: %w", ctlErr)
	}
	return nil
}

// Rearm re-enables a fired (oneshot-disarmed) watch. Safe to call from
// the handler; returns ErrLoopClosed after Cancel or loop Close.
func (w *Watch) Rearm() error {
	if w.stopped.Load() {
		return ErrLoopClosed
	}
	w.rearms.Add(1)
	return w.loop.ctl(w.conn, syscall.EPOLL_CTL_MOD, w.token)
}

// Stopped reports whether the watch has been cancelled (or its loop
// closed). Callers that stash watches in their own registries use it to
// detect a watch that was reaped by its handler before the stash
// happened.
func (w *Watch) Stopped() bool { return w.stopped.Load() }

// Cancel stops the watch. Idempotent; safe from the handler or outside.
// The connection itself is not closed — the caller owns it (and closing
// it without Cancel is also safe: the kernel drops the epoll interest
// with the last fd, and the token map entry is reclaimed here).
func (w *Watch) Cancel() {
	if w.stopped.Swap(true) {
		return
	}
	l := w.loop
	l.mu.Lock()
	delete(l.watches, w.token)
	l.mu.Unlock()
	// Best-effort kernel-side removal: if the conn is already closed the
	// registration is gone anyway, and any queued stale event is fenced
	// by the token check in pollLoop.
	rc, err := w.conn.SyscallConn()
	if err == nil {
		rc.Control(func(fd uintptr) {
			syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
		})
	}
	l.gWatched.Dec()
}

// Watched returns the number of live watches.
func (l *EventLoop) Watched() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.watches)
}

func (l *EventLoop) pollLoop() {
	defer l.wg.Done()
	defer close(l.ready)
	events := make([]syscall.EpollEvent, 128)
	for {
		n, err := syscall.EpollWait(l.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return // epfd closed under us: Close is in progress
		}
		for i := 0; i < n; i++ {
			ev := &events[i]
			token := getToken(ev)
			if token == wakeToken {
				l.cWakeups.Inc()
				var buf [8]byte
				syscall.Read(l.wakeR, buf[:])
				l.mu.Lock()
				closed := l.closed
				l.mu.Unlock()
				if closed {
					return
				}
				continue
			}
			l.mu.Lock()
			w := l.watches[token]
			l.mu.Unlock()
			if w == nil || w.stopped.Load() {
				// Token retired between kernel queueing and delivery —
				// the ABA case the indirection exists for.
				l.cStale.Inc()
				continue
			}
			r := Readiness{
				Readable: ev.Events&syscall.EPOLLIN != 0,
				HangUp:   ev.Events&(syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0,
			}
			l.cEvents.Inc()
			if r.HangUp {
				l.cHangups.Inc()
			}
			l.ready <- readyEvent{w: w, ev: r}
		}
	}
}

func (l *EventLoop) workerLoop() {
	defer l.wg.Done()
	for re := range l.ready {
		if re.w.stopped.Load() {
			l.cStale.Inc()
			continue
		}
		re.w.rearms.Load()
		re.w.fn(re.w, re.ev)
	}
}

// Close stops the poller and workers and releases the epoll instance.
// Outstanding watches are dropped (their connections are not closed).
// Blocks until every in-flight handler returns.
func (l *EventLoop) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for _, w := range l.watches {
		w.stopped.Store(true)
	}
	l.watches = make(map[uint64]*Watch)
	l.mu.Unlock()
	l.gWatched.Set(0)

	// Unblock EpollWait; the poller sees closed=true and exits, closing
	// l.ready, which drains the workers.
	syscall.Write(l.wakeW, []byte{1})
	l.wg.Wait()
	l.closeFDs()
	return nil
}

func (l *EventLoop) closeFDs() {
	syscall.Close(l.epfd)
	syscall.Close(l.wakeR)
	syscall.Close(l.wakeW)
}
