package katran_test

import (
	"fmt"

	"zdr/internal/katran"
)

// Example shows flow steering with the §5.1 connection table: a
// momentary health flap does not move unrelated established flows.
func Example() {
	lb := katran.New("l4-1", katran.Config{FlowCacheSize: 1024}, nil)
	for _, name := range []string{"proxy-a", "proxy-b", "proxy-c"} {
		lb.AddBackend(katran.Backend{Name: name, Addr: name + ":443"}, true)
	}
	defer lb.Close()

	before, _ := lb.Steer(42)
	lb.SetHealth("proxy-b", false) // flap down...
	lb.SetHealth("proxy-b", true)  // ...and back
	after, _ := lb.Steer(42)
	fmt.Println("flow stayed put:", before.Name == after.Name)
	// Output: flow stayed put: true
}
