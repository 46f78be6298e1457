package follow

import (
	"reflect"
	"testing"

	"duopacity/internal/spec"
)

func TestHelloString(t *testing.T) {
	for _, c := range []struct {
		h    Hello
		want string
	}{
		{Hello{Config: Config{Criteria: []spec.Criterion{spec.DUOpacity}}}, "STREAM du"},
		{Hello{Config: Config{Criteria: []spec.Criterion{spec.DUOpacity, spec.TMS2, spec.RCO}, Retire: 32}}, "STREAM du,tms2,rco retire=32"},
		{Hello{Config: Config{Criteria: []spec.Criterion{spec.Opacity}, NodeLimit: 5, SkipBad: true}, Lossy: true, Quiet: true},
			"STREAM opacity nodelimit=5 skipbad lossy quiet"},
		{Hello{Config: Config{Criteria: []spec.Criterion{spec.FinalStateOpacity}, Retire: 8, Strict: true}}, "STREAM finalstate retire=8 strict"},
	} {
		if got := c.h.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if h, err := ParseHello(c.want); err != nil || !reflect.DeepEqual(h, c.h) {
			t.Errorf("ParseHello(%q) = %+v, %v; want %+v", c.want, h, err, c.h)
		}
	}
}

func TestParseHelloErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"STREAM",
		"NOT A HELLO",
		"STREAM nope",
		"STREAM du,",
		"STREAM du retire=x",
		"STREAM du retire=-1",
		"STREAM du nodelimit=",
		"STREAM du skipbad strict",
		"STREAM du verbose",
	} {
		if h, err := ParseHello(line); err == nil {
			t.Errorf("ParseHello(%q) = %+v, want an error", line, h)
		}
	}
}

func TestDoneRoundTrip(t *testing.T) {
	d := Done{Events: 8, Bad: 1, Dropped: 2, Violations: 3}
	if got := d.String(); got != "DONE events=8 bad=1 dropped=2 violations=3" {
		t.Fatalf("String() = %q", got)
	}
	if got, err := ParseDone(d.String()); err != nil || got != d {
		t.Fatalf("ParseDone = %+v, %v", got, err)
	}
	if _, err := ParseDone("DONE events=8"); err == nil {
		t.Fatal("ParseDone accepted a truncated line")
	}
}

// FuzzParseHello: ParseHello never panics, and every hello it accepts
// renders to a canonical line that parses back to the same Hello.
func FuzzParseHello(f *testing.F) {
	for _, seed := range []string{
		"STREAM du",
		"STREAM du,tms2,rco retire=32",
		"STREAM du-opacity,TMS2 retire=+4 nodelimit=0 strict",
		"STREAM strictser,ser quiet lossy skipbad",
		"STREAM  du\tretire=3 retire=5",
		"STREAM du skipbad strict",
		"STREAM du,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		h, err := ParseHello(line)
		if err != nil {
			return
		}
		canon := h.String()
		back, err := ParseHello(canon)
		if err != nil {
			t.Fatalf("ParseHello(%q) accepted, its rendering %q rejected: %v", line, canon, err)
		}
		if !reflect.DeepEqual(back, h) {
			t.Fatalf("ParseHello(%q) = %+v, round-trips through %q to %+v", line, h, canon, back)
		}
		if again := back.String(); again != canon {
			t.Fatalf("rendering not canonical: %q then %q", canon, again)
		}
	})
}
