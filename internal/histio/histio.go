// Package histio reads and writes histories as text, so that the CLI
// tools (cmd/ducheck, cmd/histgen) and test fixtures — including the
// golden counterexamples pinned under internal/harness/testdata — can
// exchange them.
//
// The format transcribes the event notation of the paper's Section 2
// (Attiya, Hans, Kuznetsov and Ravi, ICDCS 2013): a history is the
// sequence of invocation and response events of t-operations read_k(X),
// write_k(X,v) and tryC_k, with A_k ("A") the abort response, C_k ("C")
// the commit response, and tryA_k ("trya") the explicit abort request.
// Parsing validates well-formedness through the same incremental core as
// history.FromEvents (via history.Stream in ParseEvents), so a file that
// parses is a history in the paper's sense — Definition 1's per-
// transaction sequential pattern included.
//
// The format is line-based; '#' starts a comment and blank lines are
// skipped. Each line is either an event:
//
//	inv read  <txn> <obj>
//	res read  <txn> <obj> <value>|A
//	inv write <txn> <obj> <value>
//	res write <txn> <obj> <value> ok|A
//	inv tryc  <txn>
//	res tryc  <txn> C|A
//	inv trya  <txn>
//	res trya  <txn> A
//
// or an operation shorthand that expands to an adjacent
// invocation/response pair:
//
//	read   <txn> <obj> <value>|A
//	write  <txn> <obj> <value> [A]
//	commit <txn> [A]
//	abort  <txn>
//
// Format always emits event lines (lossless); Parse accepts both forms.
package histio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"duopacity/internal/history"
)

// Format writes h to w, one event per line.
func Format(w io.Writer, h *history.History) error {
	return WriteEvents(w, h.Events())
}

// WriteEvents writes the events to w, one event line each — the encoder
// dual of ParseEvents. It does not validate well-formedness (the events
// need not form a history prefix), so it can serialize any event
// sequence: a live stream being forwarded over the wire (cmd/certd's
// stream protocol, ducheck -follow -connect), a synthetic load-test
// feed, or a whole history via Format. Round-tripping through
// ParseEvents yields the same events (pinned by TestEventRoundTrip and
// FuzzEventRoundTrip).
func WriteEvents(w io.Writer, evs []history.Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range evs {
		if err := formatEvent(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatEvent renders one event as its event line, without the trailing
// newline: the single-event form of WriteEvents, for consumers that
// frame lines themselves (the certd stream client sends one event line
// per network write).
func FormatEvent(e history.Event) string {
	var sb strings.Builder
	_ = formatEvent(&sb, e) // strings.Builder never errors
	return strings.TrimSuffix(sb.String(), "\n")
}

// FormatString renders h to a string.
func FormatString(h *history.History) string {
	var sb strings.Builder
	_ = Format(&sb, h) // strings.Builder never errors
	return sb.String()
}

func formatEvent(w io.Writer, e history.Event) error {
	var err error
	switch {
	case e.Kind == history.Inv && e.Op == history.OpRead:
		_, err = fmt.Fprintf(w, "inv read %d %s\n", e.Txn, e.Obj)
	case e.Kind == history.Inv && e.Op == history.OpWrite:
		_, err = fmt.Fprintf(w, "inv write %d %s %d\n", e.Txn, e.Obj, e.Arg)
	case e.Kind == history.Inv && e.Op == history.OpTryCommit:
		_, err = fmt.Fprintf(w, "inv tryc %d\n", e.Txn)
	case e.Kind == history.Inv && e.Op == history.OpTryAbort:
		_, err = fmt.Fprintf(w, "inv trya %d\n", e.Txn)
	case e.Op == history.OpRead && e.Out == history.OutOK:
		_, err = fmt.Fprintf(w, "res read %d %s %d\n", e.Txn, e.Obj, e.Val)
	case e.Op == history.OpRead:
		_, err = fmt.Fprintf(w, "res read %d %s A\n", e.Txn, e.Obj)
	case e.Op == history.OpWrite && e.Out == history.OutOK:
		_, err = fmt.Fprintf(w, "res write %d %s %d ok\n", e.Txn, e.Obj, e.Arg)
	case e.Op == history.OpWrite:
		_, err = fmt.Fprintf(w, "res write %d %s %d A\n", e.Txn, e.Obj, e.Arg)
	case e.Op == history.OpTryCommit && e.Out == history.OutCommit:
		_, err = fmt.Fprintf(w, "res tryc %d C\n", e.Txn)
	case e.Op == history.OpTryCommit:
		_, err = fmt.Fprintf(w, "res tryc %d A\n", e.Txn)
	default:
		_, err = fmt.Fprintf(w, "res trya %d A\n", e.Txn)
	}
	return err
}

// ParseEvents parses one line of the text format into its events: an
// event line yields one event, a shorthand line yields the adjacent
// invocation/response pair, and a comment or blank line yields none. It
// is the line-level entry used by streaming consumers (ducheck -follow)
// that feed events into a history.Stream or spec.Monitor as they arrive.
func ParseEvents(line string) ([]history.Event, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	return parseLine(fields)
}

// Parse reads a history from r.
func Parse(r io.Reader) (*history.History, error) {
	var evs []history.Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		es, err := ParseEvents(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("histio: line %d: %w", lineNo, err)
		}
		evs = append(evs, es...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("histio: %w", err)
	}
	h, err := history.FromEvents(evs)
	if err != nil {
		return nil, fmt.Errorf("histio: %w", err)
	}
	return h, nil
}

// ParseString parses a history from a string.
func ParseString(s string) (*history.History, error) {
	return Parse(strings.NewReader(s))
}

// Text is a history inside a JSON document: it encodes as a JSON string
// holding the history in this format, and a nil history as null.
type Text struct{ *history.History }

// MarshalJSON encodes the history as histio text.
func (t Text) MarshalJSON() ([]byte, error) {
	if t.History == nil {
		return []byte("null"), nil
	}
	return json.Marshal(FormatString(t.History))
}

// UnmarshalJSON parses the history back; null leaves it nil.
func (t *Text) UnmarshalJSON(b []byte) (err error) {
	var src *string
	if err = json.Unmarshal(b, &src); err != nil || src == nil {
		t.History = nil
		return err
	}
	t.History, err = ParseString(*src)
	return err
}

func parseLine(f []string) ([]history.Event, error) {
	switch f[0] {
	case "inv", "res":
		e, err := parseEvent(f)
		if err != nil {
			return nil, err
		}
		return []history.Event{e}, nil
	case "read":
		// read <txn> <obj> <value>|A
		if len(f) != 4 {
			return nil, fmt.Errorf("read wants 3 arguments, got %d", len(f)-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return nil, err
		}
		obj := history.Var(f[2])
		inv := history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: obj}
		if f[3] == "A" {
			return []history.Event{inv, {Kind: history.Res, Op: history.OpRead, Txn: k, Obj: obj, Out: history.OutAbort}}, nil
		}
		v, err := parseValue(f[3])
		if err != nil {
			return nil, err
		}
		return []history.Event{inv, {Kind: history.Res, Op: history.OpRead, Txn: k, Obj: obj, Val: v, Out: history.OutOK}}, nil
	case "write":
		// write <txn> <obj> <value> [A]
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("write wants 3 or 4 arguments, got %d", len(f)-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return nil, err
		}
		obj := history.Var(f[2])
		v, err := parseValue(f[3])
		if err != nil {
			return nil, err
		}
		out := history.OutOK
		if len(f) == 5 {
			if f[4] != "A" {
				return nil, fmt.Errorf("write outcome must be A, got %q", f[4])
			}
			out = history.OutAbort
		}
		return []history.Event{
			{Kind: history.Inv, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v},
			{Kind: history.Res, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v, Out: out},
		}, nil
	case "commit":
		// commit <txn> [A]
		if len(f) != 2 && len(f) != 3 {
			return nil, fmt.Errorf("commit wants 1 or 2 arguments, got %d", len(f)-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return nil, err
		}
		out := history.OutCommit
		if len(f) == 3 {
			if f[2] != "A" {
				return nil, fmt.Errorf("commit outcome must be A, got %q", f[2])
			}
			out = history.OutAbort
		}
		return []history.Event{
			{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
			{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: out},
		}, nil
	case "abort":
		if len(f) != 2 {
			return nil, fmt.Errorf("abort wants 1 argument, got %d", len(f)-1)
		}
		k, err := parseTxn(f[1])
		if err != nil {
			return nil, err
		}
		return []history.Event{
			{Kind: history.Inv, Op: history.OpTryAbort, Txn: k},
			{Kind: history.Res, Op: history.OpTryAbort, Txn: k, Out: history.OutAbort},
		}, nil
	default:
		return nil, fmt.Errorf("unknown directive %q", f[0])
	}
}

func parseEvent(f []string) (history.Event, error) {
	if len(f) < 3 {
		return history.Event{}, fmt.Errorf("event line too short")
	}
	kind := history.Inv
	if f[0] == "res" {
		kind = history.Res
	}
	k, err := parseTxn(f[2])
	if err != nil {
		return history.Event{}, err
	}
	e := history.Event{Kind: kind, Txn: k}
	switch f[1] {
	case "read":
		e.Op = history.OpRead
		if len(f) < 4 {
			return e, fmt.Errorf("read event wants an object")
		}
		e.Obj = history.Var(f[3])
		if kind == history.Inv {
			if len(f) != 4 {
				return e, fmt.Errorf("inv read wants 2 arguments")
			}
			return e, nil
		}
		if len(f) != 5 {
			return e, fmt.Errorf("res read wants 3 arguments")
		}
		if f[4] == "A" {
			e.Out = history.OutAbort
			return e, nil
		}
		v, err := parseValue(f[4])
		if err != nil {
			return e, err
		}
		e.Val, e.Out = v, history.OutOK
		return e, nil
	case "write":
		e.Op = history.OpWrite
		if len(f) < 5 {
			return e, fmt.Errorf("write event wants object and value")
		}
		e.Obj = history.Var(f[3])
		v, err := parseValue(f[4])
		if err != nil {
			return e, err
		}
		e.Arg = v
		if kind == history.Inv {
			if len(f) != 5 {
				return e, fmt.Errorf("inv write wants 3 arguments")
			}
			return e, nil
		}
		if len(f) != 6 {
			return e, fmt.Errorf("res write wants 4 arguments")
		}
		switch f[5] {
		case "ok":
			e.Out = history.OutOK
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("write outcome must be ok or A, got %q", f[5])
		}
		return e, nil
	case "tryc":
		e.Op = history.OpTryCommit
		if kind == history.Inv {
			if len(f) != 3 {
				return e, fmt.Errorf("inv tryc wants 1 argument")
			}
			return e, nil
		}
		if len(f) != 4 {
			return e, fmt.Errorf("res tryc wants 2 arguments")
		}
		switch f[3] {
		case "C":
			e.Out = history.OutCommit
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("tryc outcome must be C or A, got %q", f[3])
		}
		return e, nil
	case "trya":
		e.Op = history.OpTryAbort
		if kind == history.Inv {
			if len(f) != 3 {
				return e, fmt.Errorf("inv trya wants 1 argument")
			}
			return e, nil
		}
		if len(f) != 4 || f[3] != "A" {
			return e, fmt.Errorf("res trya wants outcome A")
		}
		e.Out = history.OutAbort
		return e, nil
	default:
		return e, fmt.Errorf("unknown operation %q", f[1])
	}
}

func parseTxn(s string) (history.TxnID, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid transaction id %q", s)
	}
	return history.TxnID(n), nil
}

func parseValue(s string) (history.Value, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", s)
	}
	return history.Value(n), nil
}
