package stm

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// PlanOp is one t-operation of a planned transaction: a read of, or a
// write to, the t-object with the given index. Written values are not part
// of the plan — the harness draws them from a per-run counter so that
// every write is unique (the hypothesis of the paper's Theorem 11), which
// means the value flow of an execution is a pure function of the schedule.
type PlanOp struct {
	Read bool
	Obj  int
}

// PlanTxn is the operation list of one planned transaction. The trailing
// tryCommit is implicit: a thread that has performed every operation of
// the transaction invokes tryC as its next step.
type PlanTxn []PlanOp

// Plan is a deterministic multi-threaded transactional program: thread g
// runs the transactions Threads[g] in order, each operation drawn from the
// plan, each transaction ending in tryC (aborted attempts retry the same
// transaction). A plan fixes everything about an execution except the
// interleaving, so the set of histories an engine can produce for a plan
// is exactly the set of schedules the scheduler allows — the object that
// harness.RunInterleaved samples one point of and harness.ExplorePlan
// enumerates exhaustively.
type Plan struct {
	// Objects is the number of t-objects the engine manages; every PlanOp
	// must address an object in [0, Objects).
	Objects int
	// Threads holds one transaction list per virtual thread.
	Threads [][]PlanTxn
}

// NumTxns is the total number of planned transactions across all threads.
func (p Plan) NumTxns() int {
	n := 0
	for _, txns := range p.Threads {
		n += len(txns)
	}
	return n
}

// NumOps is the total number of planned t-operations, excluding the
// implicit tryC steps.
func (p Plan) NumOps() int {
	n := 0
	for _, txns := range p.Threads {
		for _, ops := range txns {
			n += len(ops)
		}
	}
	return n
}

// Steps is the total number of scheduler steps a retry-free execution of
// the plan performs: every operation plus one tryC per transaction.
func (p Plan) Steps() int {
	return p.NumOps() + p.NumTxns()
}

// Validate checks that the plan is runnable: at least one thread, at least
// one transaction per thread, and every operation addressing an object in
// [0, Objects).
func (p Plan) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("stm: plan has no threads")
	}
	if p.Objects <= 0 {
		return fmt.Errorf("stm: plan has %d objects", p.Objects)
	}
	for g, txns := range p.Threads {
		if len(txns) == 0 {
			return fmt.Errorf("stm: plan thread %d has no transactions", g)
		}
		for i, ops := range txns {
			if len(ops) == 0 {
				return fmt.Errorf("stm: plan thread %d transaction %d is empty", g, i)
			}
			for _, op := range ops {
				if op.Obj < 0 || op.Obj >= p.Objects {
					return fmt.Errorf("stm: plan thread %d transaction %d addresses object %d of %d",
						g, i, op.Obj, p.Objects)
				}
			}
		}
	}
	return nil
}

// String renders the plan in the text format of ParsePlan: one line per
// thread, transactions separated by " | ", operations "r<obj>"/"w<obj>".
func (p Plan) String() string {
	var b strings.Builder
	for g, txns := range p.Threads {
		if g > 0 {
			b.WriteByte('\n')
		}
		for i, ops := range txns {
			if i > 0 {
				b.WriteString(" | ")
			}
			for j, op := range ops {
				if j > 0 {
					b.WriteByte(' ')
				}
				if op.Read {
					b.WriteByte('r')
				} else {
					b.WriteByte('w')
				}
				b.WriteString(strconv.Itoa(op.Obj))
			}
		}
	}
	return b.String()
}

// ParsePlan reads a plan from its text form: one line per thread, '|'
// separating that thread's transactions, and whitespace-separated
// operation tokens "r<obj>" (read) or "w<obj>" (write). Blank lines and
// '#' comments are skipped. Objects is inferred as one past the largest
// object index. Example — two threads, the first running w0 then a
// read-only transaction, the second a single writer:
//
//	w0 | r0 r1
//	w1
func ParsePlan(src string) (Plan, error) {
	var p Plan
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		var txns []PlanTxn
		for _, part := range strings.Split(line, "|") {
			fields := strings.Fields(part)
			if len(fields) == 0 {
				return Plan{}, fmt.Errorf("stm: plan line %d: empty transaction", ln+1)
			}
			ops := make(PlanTxn, 0, len(fields))
			for _, f := range fields {
				if len(f) < 2 || (f[0] != 'r' && f[0] != 'w') {
					return Plan{}, fmt.Errorf("stm: plan line %d: bad operation %q (want r<obj> or w<obj>)", ln+1, f)
				}
				obj, err := strconv.Atoi(f[1:])
				if err != nil || obj < 0 {
					return Plan{}, fmt.Errorf("stm: plan line %d: bad object in %q", ln+1, f)
				}
				if obj+1 > p.Objects {
					p.Objects = obj + 1
				}
				ops = append(ops, PlanOp{Read: f[0] == 'r', Obj: obj})
			}
			txns = append(txns, ops)
		}
		p.Threads = append(p.Threads, txns)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// planJSON is the JSON form of a plan: its text plus the explicit object
// count, which ParsePlan cannot infer for planned-but-untouched objects.
type planJSON struct {
	Objects int    `json:"objects"`
	Text    string `json:"text"`
}

// MarshalJSON encodes the plan as {"objects": n, "text": "..."}.
func (p Plan) MarshalJSON() ([]byte, error) {
	return json.Marshal(planJSON{Objects: p.Objects, Text: p.String()})
}

// UnmarshalJSON parses the text with ParsePlan and widens Objects to the
// encoded count.
func (p *Plan) UnmarshalJSON(b []byte) error {
	var w planJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	q, err := ParsePlan(w.Text)
	if err != nil {
		return err
	}
	q.Objects = max(q.Objects, w.Objects)
	*p = q
	return nil
}

// MustParsePlan is ParsePlan, panicking on error — for fixed litmus plans
// in tests and examples.
func MustParsePlan(src string) Plan {
	p, err := ParsePlan(src)
	if err != nil {
		panic(err)
	}
	return p
}
