package history

import (
	"fmt"
	"strconv"
	"strings"
)

// SeqTxn is one transaction of a t-complete t-sequential history: all its
// operations are complete and the last one carries C_k or A_k.
//
// Synthetic operations introduced by a completion (Definition 2) — the
// tryC·A appended to a transaction that is complete but not t-complete —
// have InvIndex == -1: they do not correspond to events of H, which matters
// for the deferred-update condition (an appended tryC is not an invocation
// of tryC in H).
type SeqTxn struct {
	ID  TxnID
	Ops []Op
}

// Committed reports whether the transaction commits in the sequential
// history.
func (t *SeqTxn) Committed() bool {
	n := len(t.Ops)
	return n > 0 && t.Ops[n-1].Out == OutCommit
}

// LastWrites returns the values the transaction installs if it commits:
// for each object, the argument of its latest successful write.
func (t *SeqTxn) LastWrites() map[Var]Value {
	m := make(map[Var]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite && !op.Pending && op.Out == OutOK {
			m[op.Obj] = op.Arg
		}
	}
	return m
}

// Seq is a t-complete t-sequential history: transactions in serialization
// order, each contiguous.
type Seq struct {
	Txns []SeqTxn
}

// Order returns seq(S), the sequence of transaction identifiers.
func (s *Seq) Order() []TxnID {
	ids := make([]TxnID, len(s.Txns))
	for i := range s.Txns {
		ids[i] = s.Txns[i].ID
	}
	return ids
}

// Position returns the index of T_k in seq(S), or -1.
func (s *Seq) Position(k TxnID) int {
	for i := range s.Txns {
		if s.Txns[i].ID == k {
			return i
		}
	}
	return -1
}

// String renders seq(S) with commit status, e.g. "T2+ T3+ T1+ T4-".
func (s *Seq) String() string {
	var b strings.Builder
	for i := range s.Txns {
		if i > 0 {
			b.WriteByte(' ')
		}
		mark := "-"
		if s.Txns[i].Committed() {
			mark = "+"
		}
		fmt.Fprintf(&b, "T%d%s", s.Txns[i].ID, mark)
	}
	return b.String()
}

// MarshalText renders the serialization as String does: its order and
// commit decisions.
func (s *Seq) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads the rendering back. The text names only the order
// and the commit decisions, so each transaction holds a single tryC step
// carrying its outcome; InHistory restores the operations from the
// history the witness serializes.
func (s *Seq) UnmarshalText(text []byte) error {
	fields := strings.Fields(string(text))
	s.Txns = make([]SeqTxn, len(fields))
	for i, f := range fields {
		n := len(f)
		if n < 3 || f[0] != 'T' || (f[n-1] != '+' && f[n-1] != '-') {
			return fmt.Errorf("history: bad serialization entry %q (want T<id>+ or T<id>-)", f)
		}
		id, err := strconv.Atoi(f[1 : n-1])
		if err != nil || id < 0 {
			return fmt.Errorf("history: bad transaction in serialization entry %q", f)
		}
		out := OutAbort
		if f[n-1] == '+' {
			out = OutCommit
		}
		s.Txns[i] = SeqTxn{ID: TxnID(id), Ops: []Op{{Kind: OpTryCommit, Out: out, InvIndex: -1, ResIndex: -1}}}
	}
	return nil
}

// InHistory materializes the order and commit decisions of s over h,
// completed per Definition 2 as SeqFromHistory completes them; unlike
// SeqFromHistory, s may order a subset of h's transactions, as the
// serializability baselines' witnesses do.
func (s *Seq) InHistory(h *History) (*Seq, error) {
	return seqOver(h, s.Order(), func(pos int) bool { return s.Txns[pos].Committed() })
}

// IllegalReadError reports the first read that does not return the latest
// written value in a sequential history.
type IllegalReadError struct {
	Txn  TxnID
	Op   Op
	Want Value // the latest written value at that point
}

func (e *IllegalReadError) Error() string {
	return fmt.Sprintf("read_%d(%s) returned %d but the latest written value is %d",
		e.Txn, e.Op.Obj, e.Op.Val, e.Want)
}

// Legal checks that every read that does not return A_k returns the latest
// written value of its object (Section 2): the transaction's own latest
// preceding write if any, otherwise the latest write of the latest
// preceding committed transaction that writes the object, otherwise
// InitValue (written by T_0).
//
// It returns nil if S is legal, and an *IllegalReadError otherwise.
func (s *Seq) Legal() error {
	state := make(map[Var]Value) // committed state; missing key == InitValue
	for i := range s.Txns {
		t := &s.Txns[i]
		local := make(map[Var]Value) // own successful writes so far
		for _, op := range t.Ops {
			switch op.Kind {
			case OpRead:
				if op.Pending || op.Out != OutOK {
					continue
				}
				want, ok := local[op.Obj]
				if !ok {
					want = state[op.Obj]
				}
				if op.Val != want {
					return &IllegalReadError{Txn: t.ID, Op: op, Want: want}
				}
			case OpWrite:
				if !op.Pending && op.Out == OutOK {
					local[op.Obj] = op.Arg
				}
			}
		}
		if t.Committed() {
			for v, val := range local {
				state[v] = val
			}
		}
	}
	return nil
}

// SeqFromHistory builds the t-complete t-sequential history S with
// transactions in the given order, completing each transaction per
// Definition 2:
//
//   - t-complete transactions keep H|k unchanged;
//   - a pending read/write/tryA is completed with A_k;
//   - a pending tryC is completed with C_k if commit[k] is true, A_k
//     otherwise;
//   - a transaction that is complete but not t-complete gets a synthetic
//     tryC·A_k appended (InvIndex == -1, marking that the tryC is not an
//     invocation in H).
//
// The order must contain exactly the transactions of h.
func SeqFromHistory(h *History, order []TxnID, commit map[TxnID]bool) (*Seq, error) {
	if len(order) != h.NumTxns() {
		return nil, fmt.Errorf("history: order has %d transactions, history has %d", len(order), h.NumTxns())
	}
	return seqOver(h, order, func(pos int) bool { return commit[order[pos]] })
}

// seqOver builds the transactions of h named by order, completed per
// Definition 2, rejecting unknown and repeated ones; commit(pos) resolves
// a pending tryC at order[pos].
func seqOver(h *History, order []TxnID, commit func(pos int) bool) (*Seq, error) {
	s := &Seq{Txns: make([]SeqTxn, 0, len(order))}
	seen := make(map[TxnID]bool, len(order))
	for pos, k := range order {
		t := h.Txn(k)
		if t == nil {
			return nil, fmt.Errorf("history: transaction T%d not in history", k)
		}
		if seen[k] {
			return nil, fmt.Errorf("history: transaction T%d appears twice in order", k)
		}
		seen[k] = true
		ops := append([]Op(nil), t.Ops...)
		switch {
		case t.TComplete():
			// Keep as is.
		case t.CommitPending():
			last := &ops[len(ops)-1]
			last.Pending = false
			if commit(pos) {
				last.Out = OutCommit
			} else {
				last.Out = OutAbort
			}
		case !t.Complete():
			// Pending read, write or tryA: completed with A_k.
			last := &ops[len(ops)-1]
			last.Pending = false
			last.Out = OutAbort
		default:
			// Complete but not t-complete: append synthetic tryC·A_k.
			ops = append(ops, Op{Kind: OpTryCommit, Out: OutAbort, InvIndex: -1, ResIndex: -1})
		}
		s.Txns = append(s.Txns, SeqTxn{ID: k, Ops: ops})
	}
	return s, nil
}

// MatchesCompletionOf verifies that s is equivalent to some completion of h
// (Definition 2): same transactions, and each S|k is H|k with pending
// operations resolved per the completion rules.
func (s *Seq) MatchesCompletionOf(h *History) error {
	if len(s.Txns) != h.NumTxns() {
		return fmt.Errorf("history: serialization has %d transactions, history has %d", len(s.Txns), h.NumTxns())
	}
	for i := range s.Txns {
		st := &s.Txns[i]
		t := h.Txn(st.ID)
		if t == nil {
			return fmt.Errorf("history: serialization transaction T%d not in history", st.ID)
		}
		want := len(t.Ops)
		extra := 0
		if t.Complete() && !t.TComplete() {
			extra = 1
		}
		if len(st.Ops) != want+extra {
			return fmt.Errorf("history: T%d has %d ops in serialization, want %d", st.ID, len(st.Ops), want+extra)
		}
		for j, op := range t.Ops {
			sop := st.Ops[j]
			if sop.Kind != op.Kind || sop.Obj != op.Obj || sop.Arg != op.Arg || sop.Pending {
				return fmt.Errorf("history: T%d op %d mismatch: history %v, serialization %v", st.ID, j, op, sop)
			}
			if !op.Pending {
				if sop.Out != op.Out || (op.Kind == OpRead && op.Out == OutOK && sop.Val != op.Val) {
					return fmt.Errorf("history: T%d op %d outcome mismatch: history %v, serialization %v", st.ID, j, op, sop)
				}
				continue
			}
			// Pending in H: completion rules.
			switch op.Kind {
			case OpTryCommit:
				if sop.Out != OutCommit && sop.Out != OutAbort {
					return fmt.Errorf("history: T%d pending tryC completed with %v", st.ID, sop.Out)
				}
			default:
				if sop.Out != OutAbort {
					return fmt.Errorf("history: T%d pending %v completed with %v, want A", st.ID, op.Kind, sop.Out)
				}
			}
		}
		if extra == 1 {
			sop := st.Ops[want]
			if sop.Kind != OpTryCommit || sop.Out != OutAbort {
				return fmt.Errorf("history: T%d completion suffix is %v, want tryC->A", st.ID, sop)
			}
		}
	}
	return nil
}
