package mqtt

// Declarations only this package's tests call: no non-test code uses them.

// HasSession reports whether connection context exists for clientID.
func (b *Broker) HasSession(clientID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.sessions[clientID]
	return ok
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

// SessionCount returns the number of sessions with context.
func (b *Broker) SessionCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}
