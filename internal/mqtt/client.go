package mqtt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client is a minimal MQTT client state machine over a provided transport.
// The transport may be a direct TCP connection or (in the full topology)
// a connection terminated by an Edge proxy and relayed through the tunnel.
type Client struct {
	conn net.Conn
	// br is what the handshake and the read loop decode through: one read
	// of conn picks up every packet that has arrived.
	br           *bufio.Reader
	clientID     string
	cleanSession bool
	props        map[string]string

	mu       sync.Mutex
	nextID   uint16
	pending  map[uint16]chan *Packet // PUBACK/SUBACK waiters
	closed   bool
	closeErr error

	msgs chan *Packet
	pong chan struct{}
	done chan struct{}
}

// NewClient wraps conn. Connect must be called before other operations.
func NewClient(conn net.Conn, clientID string, cleanSession bool) *Client {
	return &Client{
		conn:         conn,
		br:           bufio.NewReader(conn),
		clientID:     clientID,
		cleanSession: cleanSession,
		nextID:       1,
		pending:      make(map[uint16]chan *Packet),
		msgs:         make(chan *Packet, 256),
		pong:         make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
}

// SetConnectProperty attaches a key/value property to the CONNECT packet
// sent by Connect (e.g. the x-zdr-trace context). Must be called before
// Connect.
func (c *Client) SetConnectProperty(k, v string) {
	if c.props == nil {
		c.props = map[string]string{}
	}
	c.props[k] = v
}

// ErrClientClosed is returned after the client's transport dies.
var ErrClientClosed = errors.New("mqtt: client closed")

// Connect performs the CONNECT/CONNACK handshake and starts the read loop.
func (c *Client) Connect(keepAlive time.Duration, timeout time.Duration) (*Packet, error) {
	if timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	err := Encode(c.conn, &Packet{
		Type:         CONNECT,
		ClientID:     c.clientID,
		CleanSession: c.cleanSession,
		KeepAlive:    uint16(keepAlive / time.Second),
		Properties:   c.props,
	})
	if err != nil {
		return nil, err
	}
	ack, err := Decode(c.br)
	if err != nil {
		return nil, err
	}
	if ack.Type != CONNACK {
		return nil, fmt.Errorf("mqtt: expected CONNACK, got %v", ack.Type)
	}
	if ack.ReturnCode != ConnAccepted {
		return ack, fmt.Errorf("mqtt: connection refused (code %d)", ack.ReturnCode)
	}
	go c.readLoop()
	return ack, nil
}

func (c *Client) readLoop() {
	for {
		p, err := Decode(c.br)
		if err != nil {
			c.shutdown(err)
			return
		}
		switch p.Type {
		case PUBLISH:
			select {
			case c.msgs <- p:
			default: // drop over backpressure rather than stall
			}
		case PUBACK, SUBACK:
			c.mu.Lock()
			ch, ok := c.pending[p.PacketID]
			delete(c.pending, p.PacketID)
			c.mu.Unlock()
			if ok {
				ch <- p
			}
		case PINGRESP:
			select {
			case c.pong <- struct{}{}:
			default:
			}
		}
	}
}

func (c *Client) shutdown(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	pend := c.pending
	c.pending = map[uint16]chan *Packet{}
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
	c.conn.Close()
	close(c.done)
}

// Done is closed when the transport dies.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the terminal error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil && !errors.Is(c.closeErr, io.EOF) {
		return c.closeErr
	}
	return nil
}

// Messages returns the channel of received PUBLISH packets.
func (c *Client) Messages() <-chan *Packet { return c.msgs }

func (c *Client) allocWaiter() (uint16, chan *Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClientClosed
	}
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	ch := make(chan *Packet, 1)
	c.pending[id] = ch
	return id, ch, nil
}

func await(ch chan *Packet, timeout time.Duration) (*Packet, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case p, ok := <-ch:
		if !ok {
			return nil, ErrClientClosed
		}
		return p, nil
	case <-t.C:
		return nil, errors.New("mqtt: timeout waiting for ack")
	}
}

// Subscribe adds topic filters and waits for the SUBACK.
func (c *Client) Subscribe(timeout time.Duration, filters ...string) error {
	id, ch, err := c.allocWaiter()
	if err != nil {
		return err
	}
	if err := Encode(c.conn, &Packet{Type: SUBSCRIBE, PacketID: id, TopicFilters: filters}); err != nil {
		return err
	}
	_, err = await(ch, timeout)
	return err
}

// Publish sends payload on topic. QoS 1 waits for the PUBACK.
func (c *Client) Publish(topic string, payload []byte, qos uint8, timeout time.Duration) error {
	p := &Packet{Type: PUBLISH, Topic: topic, Payload: payload, QoS: qos}
	if qos == 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return ErrClientClosed
		}
		return Encode(c.conn, p)
	}
	id, ch, err := c.allocWaiter()
	if err != nil {
		return err
	}
	p.PacketID = id
	if err := Encode(c.conn, p); err != nil {
		return err
	}
	_, err = await(ch, timeout)
	return err
}

// Ping round-trips a PINGREQ (§4.2: "MQTT clients periodically exchange
// ping ... and initiate new connections as soon as transport layer
// sessions are broken").
func (c *Client) Ping(timeout time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	err := Encode(c.conn, &Packet{Type: PINGREQ})
	c.mu.Unlock()
	if err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.pong:
		return nil
	case <-c.done:
		return ErrClientClosed
	case <-t.C:
		return errors.New("mqtt: ping timeout")
	}
}

// Disconnect sends DISCONNECT and closes the transport.
func (c *Client) Disconnect() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	err := Encode(c.conn, &Packet{Type: DISCONNECT})
	c.mu.Unlock()
	c.shutdown(ErrClientClosed)
	return err
}
