package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// grammarCases cover every production of the JSON grammar, valid and
// not; the scanner must accept exactly what json.Valid accepts.
var grammarCases = []string{
	`{}`, `[]`, `""`, `0`, `-0`, `1.5e+10`, `1E-2`, `true`, `false`, `null`,
	` { "a" : [ 1 , 2 ] , "b" : { } } `, "\t\r\n[1]\n",
	`{"a":"\"\\\/\b\f\n\r\té\uD83D"}`, `"é"`, "\"\xff\"",
	`01`, `1.`, `.5`, `-`, `+1`, `1e`, `1e+`, `0x10`, `Infinity`, `NaN`,
	`[1,]`, `[,1]`, `[1 2]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{a:1}`, `{"a" 1}`,
	`tru`, `nul`, `falsey`, `"abc`, "\"a\x01\"", `"\x"`, `"\u12"`, `"\u12G4"`,
	`{"a":1}}`, `[1]]`, `[`, `{`, ``, ` `, `{"a":1} x`, `1 2`, "{}\x00", "[\x00]", "\x00",
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat("[", 200) + strings.Repeat("]", 200),
}

func TestScannerAgreesWithJSONValid(t *testing.T) {
	for _, doc := range grammarCases {
		sc := NewScanner([]byte(doc), 0)
		_, _, err := sc.Skip()
		if err == nil {
			err = sc.Finish()
		}
		valid := json.Valid([]byte(doc))
		switch {
		case err == nil && !valid:
			t.Errorf("scanner accepts invalid %.40q", doc)
		case err != nil && valid && !errors.Is(err, ErrShape):
			t.Errorf("scanner rejects valid %.40q: %v", doc, err)
		}
	}
}

func TestObjectKeyRules(t *testing.T) {
	keys := []string{"kw"}
	for _, tc := range []struct {
		doc   string
		found bool
		err   error
	}{
		{`{"kw":1}`, true, nil},
		{`{"a":{"KW":1},"kw":1}`, true, nil}, // nested keys are not sought
		{`{"x":1,"kw":2,"y":3}`, true, nil},
		{`{"x":1}`, false, nil},
		{`{"kwh":1}`, false, nil},
		{`{"KW":1}`, false, ErrShape},
		{`{"kW":1,"kw":1}`, false, ErrShape},
		{`{"kw":1,"kw":2}`, true, ErrShape},
		{`{"\u006bw":1}`, false, ErrShape}, // escaped kw
		{`{"Kw":1}`, false, ErrShape},      // Kelvin sign folds to k
		{`{"ｋw":1}`, false, ErrShape},
		{`{"a\"b":1}`, false, ErrShape},
		{`[1]`, false, ErrShape},
		{`{"kw":1`, true, ErrSyntax},
	} {
		sc := NewScanner([]byte(tc.doc), 0)
		found := false
		err := sc.Object(keys, func(i int) error {
			found = true
			_, _, err := sc.Skip()
			return err
		})
		if found != tc.found || !errors.Is(err, tc.err) && !(err == nil && tc.err == nil) {
			t.Errorf("%s: found %v err %v, want %v %v", tc.doc, found, err, tc.found, tc.err)
		}
	}
}

func TestArrayCap(t *testing.T) {
	for _, tc := range []struct {
		doc string
		err error
	}{
		{`[1,2,3]`, nil},
		{`[1,2,3,4]`, ErrTooLong},
		{`{"a":[[1,2],[1,2,3]]}`, nil},
		{`{"a":[[1,2],[1,2,3,4]]}`, ErrTooLong},
		{`{"a":"[1,2,3,4,5]"}`, nil},
	} {
		_, _, err := NewScanner([]byte(tc.doc), 3).Skip()
		if !errors.Is(err, tc.err) && !(err == nil && tc.err == nil) {
			t.Errorf("%s: err %v, want %v", tc.doc, err, tc.err)
		}
	}
}

func TestNumber(t *testing.T) {
	sc := NewScanner([]byte(` [ -0 , 1.25e-3,7 ] `), 0)
	var got []string
	err := sc.Array(func() error {
		tok, err := sc.Number()
		got = append(got, string(tok))
		return err
	})
	if err != nil || strings.Join(got, "|") != "-0|1.25e-3|7" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := sc.Finish(); err != nil {
		t.Fatal(err)
	}
	for doc, want := range map[string]error{`null`: ErrShape, `"1"`: ErrShape, `01`: nil, `-x`: ErrSyntax} {
		_, err := NewScanner([]byte(doc), 0).Number()
		if !errors.Is(err, want) && !(err == nil && want == nil) {
			t.Errorf("Number(%s) = %v, want %v", doc, err, want)
		}
	}
}

func TestSkipDoesNotAllocate(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"contract":{"name":"x","tariffs":[{"type":"fixed","rate":0.07}]},"load":{"series":{"start":"2016-01-01T00:00:00Z","kw":[`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("12034.567890123456")
	}
	b.WriteString("]}}}")
	doc := b.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		sc := NewScanner(doc, 1<<20)
		if _, _, err := sc.Skip(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Skip allocates %v times per document", allocs)
	}
}

// shortReader hands out at most n bytes per Read.
type shortReader struct {
	r io.Reader
	n int
}

func (s shortReader) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 70_000) // 700 KB
	for _, tc := range []struct {
		name    string
		length  int64
		wantCap int // 0: any
	}{
		{"honest length", int64(len(body)), len(body) + 1},
		{"unknown length", -1, 0},
		{"understated length", 100, 0},
		{"overstated length", 1 << 40, 0},
	} {
		got, err := ReadBody(shortReader{bytes.NewReader(body), 4096}, tc.length)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: %d bytes, %v", tc.name, len(got), err)
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("%s: cap %d, want %d (one presized buffer)", tc.name, cap(got), tc.wantCap)
		}
	}

	// A lying header presizes no more than the cap.
	got, err := ReadBody(strings.NewReader("{}"), 1<<40)
	if err != nil || string(got) != "{}" || cap(got) > maxPresize+1 {
		t.Errorf("overstated length: %q cap %d err %v", got, cap(got), err)
	}

	// Read errors pass through.
	boom := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(strings.NewReader("ab"), errReader{boom}), 2); !errors.Is(err, boom) {
		t.Errorf("read error lost: %v", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
