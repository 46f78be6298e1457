// Package follow is the online-monitoring session behind `ducheck
// -follow` and certd's STREAM endpoint. Du-opacity is a safety property
// (prefix- and limit-closed, Corollary 2), so a monitor fed one event at
// a time latches a violation at the event that causes it.
package follow

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// MaxLineBytes bounds one input line. A longer line is a read error that
// ends the stream, not bad input to skip: skipping it would mean
// buffering it whole.
const MaxLineBytes = 1 << 20

// NewScanner returns a line scanner over r bounded by MaxLineBytes.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	return sc
}

// LineError attributes err to input line no (counted from 1).
func LineError(no int, err error) error {
	return fmt.Errorf("line %d: %w", no, err)
}

// Config selects a session's monitors and its policy for bad input: a
// line histio cannot parse, or an event the monitors reject as
// ill-formed. By default each bad line goes to the note function and is
// skipped. SkipBad quarantines instead: bad lines are counted, kept in a
// ledger and summed up in a "follow:" summary line. Strict fails the
// session on the first one. Set at most one of the two.
type Config struct {
	Criteria        []spec.Criterion
	Retire          int // spec.WithRetirement window; 0 keeps every transaction
	NodeLimit       int // spec.WithNodeLimit; 0 is unlimited
	SkipBad, Strict bool
}

// Fed is what one input line did to a session.
type Fed struct {
	Events      int   // events appended to every monitor
	AppendNanos int64 // time the monitors spent appending them
	Bad         bool  // the line was rejected, under any policy
}

// Session follows one event stream: one online monitor per criterion.
// It is not safe for concurrent use.
type Session struct {
	cfg      Config
	monitors []*spec.Monitor
	verdicts []spec.Verdict // the current event's verdicts, reused
	echo     io.Writer
	note     func(no int, err error)
	buf      []byte // the echo line being rendered, reused
	events   int
	bad      int
	ledger   []string // the first ten quarantined lines, rendered
}

// New builds a session. Every appended event is echoed to echo (nil
// echoes nothing) with a verdict column per criterion on response
// events. Bad lines not quarantined or fatal go to note (nil drops them).
func New(cfg Config, echo io.Writer, note func(no int, err error)) (*Session, error) {
	s := &Session{cfg: cfg, echo: echo, note: note}
	for _, c := range cfg.Criteria {
		opts := []spec.Option{spec.WithNodeLimit(cfg.NodeLimit)}
		if cfg.Retire > 0 {
			opts = append(opts, spec.WithRetirement(cfg.Retire))
		}
		m, err := spec.NewMonitor(c, opts...)
		if err != nil {
			return nil, err
		}
		s.monitors = append(s.monitors, m)
	}
	return s, nil
}

// Line feeds input line no (counted from 1) to the monitors. Events
// before a rejected one on the same line stay appended; the rest of the
// line is dropped. The error is non-nil only with Strict, when the line
// was bad: the session is then over and Summary must not be written.
func (s *Session) Line(no int, text string) (Fed, error) {
	var fed Fed
	evs, err := histio.ParseEvents(text)
	if err != nil {
		fed.Bad = true
		return fed, s.reject(no, text, err)
	}
	for _, e := range evs {
		// Well-formedness is criterion-independent, so either every
		// monitor accepts the event or the first rejects it with the
		// others untouched; rejection is side-effect-free either way.
		s.verdicts = s.verdicts[:0]
		start := time.Now()
		for _, m := range s.monitors {
			v, err := m.Append(e)
			if err != nil {
				fed.Bad = true
				return fed, s.reject(no, text, err)
			}
			s.verdicts = append(s.verdicts, v)
		}
		fed.AppendNanos += time.Since(start).Nanoseconds()
		fed.Events++
		if s.echo != nil {
			b := fmt.Appendf(s.buf[:0], "%4d  %-28v", s.events, e)
			if e.Kind == history.Res {
				for i, v := range s.verdicts {
					b = fmt.Appendf(b, "  %s:%s", s.cfg.Criteria[i], status(v))
				}
			}
			s.buf = append(b, '\n')
			_, _ = s.echo.Write(s.buf) // a failing echo writer is the transport's to detect
		}
		s.events++
	}
	return fed, nil
}

// reject applies the bad-input policy to line no.
func (s *Session) reject(no int, text string, err error) error {
	s.bad++
	switch {
	case s.cfg.Strict:
		return LineError(no, err)
	case s.cfg.SkipBad:
		if len(s.ledger) < 10 {
			s.ledger = append(s.ledger, fmt.Sprintf("  line %d: %v: %q\n", no, err, text))
		}
	default:
		if s.note != nil {
			s.note(no, err)
		}
	}
	return nil
}

// status is a verdict's echo column.
func status(v spec.Verdict) string {
	switch {
	case v.Undecided:
		return "undecided"
	case !v.OK:
		return "VIOLATED"
	}
	return "ok"
}

// Quarantine writes the SkipBad ledger to w, if any line was bad: lead
// and the count, then the first offenders with line, reason and text.
func (s *Session) Quarantine(w io.Writer, lead string) {
	if !s.cfg.SkipBad || s.bad == 0 {
		return
	}
	fmt.Fprintf(w, "%s%d bad input line(s):\n", lead, s.bad)
	for _, l := range s.ledger {
		io.WriteString(w, l)
	}
	if s.bad > len(s.ledger) {
		fmt.Fprintf(w, "  ... and %d more\n", s.bad-len(s.ledger))
	}
}

// Summary writes the final summary to w — the SkipBad "follow:" line,
// then each criterion's verdict and, with Retire set, its retirement
// line — and returns the session's counts. Violations latch, so one
// anywhere in the stream counts.
func (s *Session) Summary(w io.Writer) Done {
	d := Done{Events: s.events, Bad: s.bad}
	if s.cfg.SkipBad {
		fmt.Fprintf(w, "follow: events=%d bad=%d\n", s.events, s.bad)
	}
	for i, m := range s.monitors {
		v := m.Verdict()
		fmt.Fprintln(w, v)
		if s.cfg.Retire > 0 {
			fmt.Fprintf(w, "%v: %d events, %d transactions retired, %d live\n",
				s.cfg.Criteria[i], m.Len(), m.Retired(), m.LiveTxns())
		}
		if !v.OK && !v.Undecided {
			d.Violations++
		}
	}
	return d
}
