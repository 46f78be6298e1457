package follow

import (
	"fmt"
	"strconv"
	"strings"

	"duopacity/internal/spec"
)

// Hello is the line that opens a certd monitor stream:
//
//	STREAM <criteria-csv> [retire=N] [nodelimit=N] [skipbad|strict] [lossy] [quiet]
//
// Criteria are ducheck's -criteria names (spec.ParseCriterion). The
// session options travel in Config; Lossy and Quiet are the server's
// transport options (drop input on a full queue; no per-event echo).
type Hello struct {
	Config
	Lossy bool
	Quiet bool
}

// ParseHello parses a STREAM hello. It accepts criteria the monitor
// cannot follow (strictser, ser): New rejects those with the monitor's
// own explanation, which lists the monitorable set.
func ParseHello(line string) (Hello, error) {
	var h Hello
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "STREAM" {
		return h, fmt.Errorf("want: STREAM <criteria> [retire=N] [nodelimit=N] [skipbad|strict] [lossy] [quiet]")
	}
	for _, name := range strings.Split(fields[1], ",") {
		c, ok := spec.ParseCriterion(name)
		if !ok {
			return h, fmt.Errorf("unknown criterion %q", name)
		}
		h.Criteria = append(h.Criteria, c)
	}
	words := map[string]*bool{"skipbad": &h.SkipBad, "strict": &h.Strict, "lossy": &h.Lossy, "quiet": &h.Quiet}
	counts := map[string]*int{"retire": &h.Retire, "nodelimit": &h.NodeLimit}
	for _, f := range fields[2:] {
		key, val, hasVal := strings.Cut(f, "=")
		if p, ok := words[f]; ok {
			*p = true
		} else if p, ok := counts[key]; ok && hasVal {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return h, fmt.Errorf("bad %s value %q", key, f)
			}
			*p = n
		} else {
			return h, fmt.Errorf("unknown option %q", f)
		}
	}
	if h.SkipBad && h.Strict {
		return h, fmt.Errorf("skipbad and strict are mutually exclusive")
	}
	return h, nil
}

// String renders the hello as ParseHello reads it, omitting zero
// options.
func (h Hello) String() string {
	names := make([]string, len(h.Criteria))
	for i, c := range h.Criteria {
		names[i], _ = spec.CriterionAlias(c) // every parsable criterion has one
	}
	f := []string{"STREAM", strings.Join(names, ",")}
	for _, o := range []struct {
		on   bool
		word string
	}{
		{h.Retire > 0, "retire=" + strconv.Itoa(h.Retire)},
		{h.NodeLimit > 0, "nodelimit=" + strconv.Itoa(h.NodeLimit)},
		{h.SkipBad, "skipbad"},
		{h.Strict, "strict"},
		{h.Lossy, "lossy"},
		{h.Quiet, "quiet"},
	} {
		if o.on {
			f = append(f, o.word)
		}
	}
	return strings.Join(f, " ")
}

// Done is the line that ends a completed stream; Dropped counts the
// lines a lossy stream dropped.
type Done struct{ Events, Bad, Dropped, Violations int }

const doneFormat = "DONE events=%d bad=%d dropped=%d violations=%d"

func (d Done) String() string {
	return fmt.Sprintf(doneFormat, d.Events, d.Bad, d.Dropped, d.Violations)
}

// ParseDone parses a DONE line.
func ParseDone(line string) (d Done, err error) {
	_, err = fmt.Sscanf(line, doneFormat, &d.Events, &d.Bad, &d.Dropped, &d.Violations)
	return d, err
}
