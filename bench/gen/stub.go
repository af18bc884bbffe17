package gen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strconv"
	"sync"

	"zdr/bench/rig"
	"zdr/internal/quicx"
)

// Stub is a bare loopback answering machine for each protocol the
// generator speaks: it gives the replies the rig would, with as little
// work as that takes. Running a workload against it measures what the
// generator itself costs and how fast it can go.
type Stub struct {
	rig.Targets

	mu      sync.Mutex
	closers []io.Closer
	wg      sync.WaitGroup
}

// NewStub starts the stub: two pretend edges, each with a web, an MQTT
// and a datagram address, behind a steering LB like the rig's.
func NewStub(seed int64) (*Stub, error) {
	s := &Stub{}
	s.Content = rig.NewContent(seed, len(rig.EdgeNames[0]))
	for _, name := range rig.EdgeNames {
		web, err := s.listen(s.serveHTTP)
		if err != nil {
			s.Close()
			return nil, err
		}
		mq, err := s.listen(s.serveMQTT)
		if err != nil {
			s.Close()
			return nil, err
		}
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.track(pc)
		s.wg.Add(1)
		go s.serveQUIC(name, pc)
		s.Edges = append(s.Edges, rig.Edge{Name: name, Web: web, MQTT: mq, QUIC: pc.LocalAddr().(*net.UDPAddr)})
	}
	s.LB = rig.NewLB(s.Edges)
	return s, nil
}

func (s *Stub) track(c io.Closer) {
	s.mu.Lock()
	s.closers = append(s.closers, c)
	s.mu.Unlock()
}

// listen accepts TCP connections and hands each to serve.
func (s *Stub) listen(serve func(net.Conn)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.track(ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.track(conn)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the stub and waits for its goroutines.
func (s *Stub) Close() {
	if s.LB != nil {
		s.LB.Close()
	}
	s.mu.Lock()
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	for _, c := range closers {
		c.Close()
	}
	s.wg.Wait()
}

// serveHTTP answers GET /dyn/<n> with n seeded bytes and echoes any
// request body, with a Content-Length.
func (s *Stub) serveHTTP(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 16<<10)
	var body, out []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		reply := []byte(nil)
		if bytes.HasPrefix(line, []byte("GET /dyn/")) {
			n, _ := strconv.Atoi(string(line[9 : bytes.IndexByte(line[9:], ' ')+9]))
			reply = s.Content.Dyn[:n]
		}
		length := 0
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
			if hasPrefixFold(line, "content-length:") {
				length, _ = strconv.Atoi(string(bytes.TrimSpace(line[15:])))
			}
		}
		if length > 0 {
			if length > rig.PostSize {
				return
			}
			if length > len(body) {
				body = make([]byte, length)
			}
			if _, err := io.ReadFull(br, body[:length]); err != nil {
				return
			}
			reply = body[:length]
		}
		out = append(out[:0], "HTTP/1.1 200 OK\r\nContent-Length: "...)
		out = strconv.AppendInt(out, int64(len(reply)), 10)
		out = append(out, "\r\n\r\n"...)
		bufs := net.Buffers{out, reply}
		if _, err := bufs.WriteTo(conn); err != nil {
			return
		}
	}
}

// serveMQTT accepts any CONNECT and SUBSCRIBE and answers a QoS 1
// PUBLISH with its delivery and its PUBACK, as a broker the publisher is
// subscribed at would.
func (s *Stub) serveMQTT(conn net.Conn) {
	w := &mqttWorker{conn: conn, br: bufio.NewReaderSize(conn, 4<<10), buf: make([]byte, 0, 512)}
	var out []byte
	for {
		first, body, err := w.packet()
		if err != nil {
			return
		}
		switch first >> 4 {
		case 1:
			out = append(out[:0], 2<<4, 2, 0, 0)
		case 8:
			out = append(out[:0], 9<<4, 3, body[0], body[1], 0)
		case 3:
			tl := int(binary.BigEndian.Uint16(body))
			out = append(out[:0], 3<<4)
			out = appendVarint(out, len(body)-2)
			out = append(out, body[:2+tl]...)
			out = append(out, body[2+tl+2:]...)
			out = append(out, 4<<4, 2, body[2+tl], body[2+tl+1])
		default:
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// serveQUIC answers every Initial and Data datagram as the named edge
// would answer from its cache.
func (s *Stub) serveQUIC(name string, pc *net.UDPConn) {
	defer s.wg.Done()
	replies := map[string][]byte{}
	for i, k := range s.Content.QuicKeys {
		replies[string(k)] = s.Content.QuicReply(name, i)
	}
	in, out := make([]byte, 2048), make([]byte, 0, 128)
	for {
		n, from, err := pc.ReadFromUDPAddrPort(in)
		if err != nil {
			return
		}
		p, err := quicx.Unmarshal(in[:n])
		if err != nil || p.Type == quicx.PktClose {
			continue
		}
		out = quicx.AppendPacket(out[:0], quicx.Packet{Type: quicx.PktData, Conn: p.Conn, Payload: replies[string(p.Payload)]})
		pc.WriteToUDPAddrPort(out, from)
	}
}
