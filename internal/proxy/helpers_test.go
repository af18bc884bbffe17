package proxy

// Declarations only this package's tests call: no non-test code uses them.

// MQTTConnCount returns the number of user MQTT connections this
// generation holds.
func (p *Proxy) MQTTConnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(ownersOf[*mqttRelay](p))
}
