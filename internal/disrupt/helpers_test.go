package disrupt

// Declarations only this package's tests call: no non-test code uses them.

// Node returns the node name, or "" on a nil ledger.
func (l *Ledger) Node() string {
	if l == nil {
		return ""
	}
	return l.node
}
