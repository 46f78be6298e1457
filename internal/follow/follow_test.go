package follow

import (
	"strings"
	"testing"

	"duopacity/internal/spec"
)

// TestSessionPolicies feeds the same lines under each bad-input policy
// and checks what Line reports per line (the counts certd's metrics add
// up) and what reaches the note function, the ledger and the summary.
func TestSessionPolicies(t *testing.T) {
	lines := []string{"write 1 X 1", "not an event", "commit 1", "res read 9 X 1", "read 2 X 1", "commit 2"}
	for _, p := range []Config{{}, {SkipBad: true}, {Strict: true}} {
		p.Criteria = []spec.Criterion{spec.DUOpacity, spec.Opacity}
		var echo, ledger, summary strings.Builder
		var notes []int
		s, err := New(p, &echo,
			func(no int, err error) { notes = append(notes, no) })
		if err != nil {
			t.Fatal(err)
		}
		events, bad := 0, 0
		var stop error
		for i, l := range lines {
			fed, err := s.Line(i+1, l)
			events += fed.Events
			if fed.Bad {
				bad++
			}
			if err != nil {
				stop = err
				break
			}
		}
		if got := strings.Count(echo.String(), "\n"); got != events {
			t.Errorf("%+v: %d echo lines for %d events", p, got, events)
		}
		s.Quarantine(&ledger, "Q ")
		switch {
		case p.Strict:
			if stop == nil || !strings.HasPrefix(stop.Error(), "line 2: ") || events != 2 || bad != 1 {
				t.Errorf("Strict: stopped with %v after %d events, %d bad", stop, events, bad)
			}
			continue
		case !p.SkipBad:
			if len(notes) != 2 || notes[0] != 2 || notes[1] != 4 || ledger.Len() != 0 {
				t.Errorf("NoteBad: notes %v, ledger %q", notes, ledger.String())
			}
		default:
			if len(notes) != 0 || !strings.HasPrefix(ledger.String(), "Q 2 bad input line(s):\n  line 2: ") {
				t.Errorf("SkipBad: notes %v, ledger %q", notes, ledger.String())
			}
		}
		d := s.Summary(&summary)
		if d != (Done{Events: events, Bad: bad}) || bad != 2 || strings.Contains(summary.String(), "follow: ") != p.SkipBad {
			t.Errorf("%+v: Line reported %d events, %d bad; summary %+v, %q", p, events, bad, d, summary.String())
		}
	}
}

// TestSessionQuietEchoesNothing: a nil echo writer is certd's quiet.
func TestSessionQuietEchoesNothing(t *testing.T) {
	s, err := New(Config{Criteria: []spec.Criterion{spec.DUOpacity}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range []string{"write 1 X 1", "read 2 X 1", "garbage"} {
		if _, err := s.Line(i+1, l); err != nil {
			t.Fatal(err)
		}
	}
	var summary strings.Builder
	if d := s.Summary(&summary); d != (Done{Events: 4, Bad: 1, Violations: 1}) {
		t.Fatalf("summary %+v:\n%s", d, summary.String())
	}
}
