package faults

// Declarations only this package's tests call: no non-test code uses them.

// Partitioned reports whether the control plane is currently severed.
func (in *Injector) Partitioned() bool {
	return in != nil && in.partitioned.Load()
}
