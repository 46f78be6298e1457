package checkfarm

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the JobSpec JSON decoder and
// Normalize — the boundary certd's POST /v1/jobs crosses, plans
// (stm.ParsePlan) and histories (histio) included. It requires no panic,
// that a normalized spec is a fixed point of Normalize, and that
// Marshal → Unmarshal → Normalize reproduces the same JSON. NumShards is
// not called: a soak spec materializes its whole grid there.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"certify","certify":{"config":{"Engine":"tl2","Objects":3,"Goroutines":2,"TxnsPerGoroutine":2,"OpsPerTxn":3,"Seed":7,"Episodes":6,"Interleaved":true},"criteria":["du"]}}`,
		`{"kind":"check","check":{"histories":["write 1 X 1\ncommit 1\n"],"criteria":["du"]}}`,
		`{"kind":"explore","explore":{"engine":"gl","plans":[{"objects":1,"text":"x9q"}]}}`,
		`{"kind":"check","check":{"histories":["not a history !!"],"criteria":["du"]}}`,
		`{"kind":"explore","explore":{"engine":"tl2+karma","plans":[{"objects":3,"text":"w0 | r0 r1\nw1"}],"config":{"Criterion":"opacity","MaxSchedules":50}}}`,
		`{"kind":"check","check":{"histories":["inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n"],"criteria":["du-opacity","serializability"],"node_limit":200000,"portfolio":2}}`,
		`{"kind":"soak","soak":{"config":{"Engines":["gl","norec"],"Criteria":["du","serializability"],"Rounds":2,"Seed":7}}}`,
		`{"kind":"nope"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var s JobSpec
		if err := json.Unmarshal([]byte(src), &s); err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected on renormalization: %v", err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("Normalize is not idempotent:\n1: %+v\n2: %+v", n, n2)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		back, err = back.Normalize()
		if err != nil {
			t.Fatalf("re-decoded spec rejected: %v\n%s", err, b)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("marshal re-decoded spec: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("JSON round trip changed the spec:\n1: %s\n2: %s", b, b2)
		}
	})
}
