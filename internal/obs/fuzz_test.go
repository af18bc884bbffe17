package obs

import "testing"

// FuzzParseSpanContext: parsing never panics, and the String of a context
// it accepts parses back to the same context. A trace context arrives
// from outside in x-zdr-trace and MQTT CONNECT properties. The seed
// corpus is testdata/fuzz/FuzzParseSpanContext.
func FuzzParseSpanContext(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseSpanContext(s)
		if !ok {
			return
		}
		back, ok := ParseSpanContext(c.String())
		if !ok || back != c {
			t.Fatalf("%q parsed as %+v, whose String %q parses as %+v, %v", s, c, c.String(), back, ok)
		}
	})
}
