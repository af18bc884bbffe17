package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestSpecFileIsAWire: testdata/spec.json decodes into the Spec it
// describes and re-encodes to the same bytes, and a key this build does
// not know is ignored, so an older build reads a newer spec.
func TestSpecFileIsAWire(t *testing.T) {
	file, err := os.ReadFile("testdata/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Broker: true, Apps: 2, Origins: 2, Edges: 2, Drain: 500 * time.Millisecond,
		Dir:      "/run/zdr",
		Addrs:    map[string]map[string]string{"edge-00": {"web": "127.0.0.1:8080", "health": "127.0.0.1:8081"}},
		Steering: "prequal",
	}
	var got Spec
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	again, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if again = append(again, '\n'); !bytes.Equal(again, file) {
		t.Fatalf("re-encoded:\n%s\nthe file:\n%s", again, file)
	}

	newer := bytes.Replace(file, []byte(`"broker": true,`), []byte(`"broker": true, "canary": {"nodes": 1},`), 1)
	var older Spec
	if err := json.Unmarshal(newer, &older); err != nil || !reflect.DeepEqual(older, want) {
		t.Fatalf("a spec with a key this build does not know: %+v, %v", older, err)
	}
}
