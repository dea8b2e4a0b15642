// Package ingest is the request-body front end shared by the router
// (internal/route) and the backend (internal/serve): a presized body
// reader and a validating, allocation-free JSON structural scanner.
//
// The scanner lets both layers read one large inline request exactly
// once. The router finds the byte span of the contract spec it shards
// on and skips everything else; the backend finds load.series.kw and
// parses its numbers straight into samples, leaving encoding/json only
// the small envelope. The scanner accepts exactly the JSON grammar
// encoding/json accepts, so a document it walks without error is one
// encoding/json would also accept. Callers fall back to encoding/json
// for anything outside the shape they expect — ErrShape and ErrSyntax
// both mean "use the slow path" — which keeps encoding/json the single
// source of truth for every unusual body.
package ingest

import (
	"errors"
	"fmt"
)

var (
	// ErrSyntax reports a document that is not valid JSON.
	ErrSyntax = errors.New("ingest: invalid JSON")
	// ErrShape reports valid JSON outside the shape the caller scans
	// for: a value of an unexpected kind, or a key that encoding/json
	// might match to a sought key without being byte-identical to it.
	ErrShape = errors.New("ingest: outside the scanned shape")
	// ErrTooLong reports an array with more elements than the
	// scanner's cap.
	ErrTooLong = errors.New("ingest: array too long")
)

// maxDepth is encoding/json's nesting limit. Deeper documents are
// ErrShape, so callers fall back to encoding/json, which rejects them
// itself.
const maxDepth = 10000

// Scanner is a cursor over one JSON document. Every method that
// consumes a value validates it against the JSON grammar; none
// allocates unless it returns an error. A Scanner is not safe for
// concurrent use.
type Scanner struct {
	data     []byte
	pos      int
	depth    int
	maxArray int
}

// NewScanner returns a scanner positioned at the start of data. Every
// array the scanner consumes, skipped or not, may hold at most maxArray
// elements; past that it stops with ErrTooLong. maxArray <= 0 means no
// cap.
func NewScanner(data []byte, maxArray int) *Scanner {
	return &Scanner{data: data, maxArray: maxArray}
}

// Pos returns the cursor's byte offset.
func (s *Scanner) Pos() int { return s.pos }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the document.
func (s *Scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// Finish reports whether only whitespace remains after the cursor. It
// checks the length, not peek's 0, which a NUL byte would also give.
func (s *Scanner) Finish() error {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.syntax("data after the top-level value")
	}
	return nil
}

// Skip consumes one value and returns its span [start, end).
func (s *Scanner) Skip() (start, end int, err error) {
	s.skipSpace()
	start = s.pos
	err = s.skipValue()
	return start, s.pos, err
}

// Number consumes one JSON number and returns its bytes. A value of
// any other kind is ErrShape, a malformed number ErrSyntax.
func (s *Scanner) Number() ([]byte, error) {
	s.skipSpace()
	start := s.pos
	if start >= len(s.data) {
		return nil, s.syntax("unexpected end of input")
	}
	if c := s.data[start]; c != '-' && (c < '0' || c > '9') {
		return nil, ErrShape
	}
	if err := s.number(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// Array consumes an array, calling elem once per element with the
// cursor at the element; elem must consume exactly that element. A
// value that is not an array is ErrShape.
func (s *Scanner) Array(elem func() error) error {
	if s.peek() != '[' {
		return ErrShape
	}
	return s.array(elem)
}

// Object consumes an object. For a member whose key is byte-identical
// to keys[i] it calls member(i) with the cursor at the value; member
// must consume exactly that value. Every other member's value is
// skipped. A value that is not an object is ErrShape, and so is an
// object in which encoding/json could resolve a key differently than
// a byte comparison would: a key holding an escape or a non-ASCII byte,
// a case variant of a sought key, or a sought key appearing twice. At
// most 64 keys may be sought.
func (s *Scanner) Object(keys []string, member func(i int) error) error {
	if s.peek() != '{' {
		return ErrShape
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.pos++
	var seen uint64
	if s.peek() == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.syntax("object key must be a string")
		}
		key, plain, err := s.str()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.syntax("missing ':' after object key")
		}
		s.pos++
		i, err := match(key, plain, keys)
		if err != nil {
			return err
		}
		switch {
		case i < 0:
			s.skipSpace()
			err = s.skipValue()
		case seen&(1<<i) != 0:
			return ErrShape
		default:
			seen |= 1 << i
			s.skipSpace()
			err = member(i)
		}
		if err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.syntax("missing ',' or '}' in object")
		}
	}
}

// match returns the index of the sought key byte-identical to key, or
// -1 for a key encoding/json could not match to any sought key. plain
// reports a key free of escapes and non-ASCII bytes; only such a key
// can be ruled out byte-wise, since encoding/json decodes escapes and
// folds case with Unicode rules before matching field names.
func match(key []byte, plain bool, keys []string) (int, error) {
	if len(keys) == 0 {
		return -1, nil
	}
	if !plain {
		return -1, ErrShape
	}
	for i, k := range keys {
		if string(key) == k {
			return i, nil
		}
		if foldEqual(key, k) {
			return -1, ErrShape
		}
	}
	return -1, nil
}

// foldEqual is encoding/json's key folding restricted to ASCII: letters
// match either case, every other byte only itself.
func foldEqual(a []byte, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if upper(a[i]) != upper(b[i]) {
			return false
		}
	}
	return true
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

func (s *Scanner) syntax(msg string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrSyntax, msg, s.pos)
}

func (s *Scanner) enter() error {
	s.depth++
	if s.depth > maxDepth {
		return ErrShape
	}
	return nil
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// skipValue consumes the value at the cursor (whitespace already
// skipped).
func (s *Scanner) skipValue() error {
	if s.pos >= len(s.data) {
		return s.syntax("unexpected end of input")
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return s.Object(nil, nil)
	case c == '[':
		return s.array(func() error {
			s.skipSpace()
			return s.skipValue()
		})
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.syntax("invalid character")
}

// array consumes the array at the cursor, counting its elements against
// the cap.
func (s *Scanner) array(elem func() error) error {
	if err := s.enter(); err != nil {
		return err
	}
	s.pos++
	if s.peek() == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for n := 1; ; n++ {
		if s.maxArray > 0 && n > s.maxArray {
			return fmt.Errorf("%w: more than %d elements", ErrTooLong, s.maxArray)
		}
		s.skipSpace()
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return nil
		default:
			return s.syntax("missing ',' or ']' in array")
		}
	}
}

func (s *Scanner) literal(lit string) error {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.syntax("invalid literal")
	}
	s.pos += len(lit)
	return nil
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the
// JSON number grammar. The byte after it is the caller's to check.
func (s *Scanner) number() error {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		s.pos = i
		return s.syntax("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			s.pos = j
			return s.syntax("invalid number fraction")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			s.pos = j
			return s.syntax("invalid number exponent")
		}
		i = j
	}
	s.pos = i
	return nil
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// str consumes the string at the cursor and returns its raw contents
// (escapes undecoded). plain reports contents free of escapes and
// non-ASCII bytes. Like encoding/json it rejects control characters
// and malformed escapes but not invalid UTF-8.
func (s *Scanner) str() (raw []byte, plain bool, err error) {
	d := s.data
	start := s.pos + 1
	plain = true
	for i := start; i < len(d); {
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return d[start:i], plain, nil
		case c < 0x20:
			s.pos = i
			return nil, false, s.syntax("control character in string")
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				s.pos = i
				return nil, false, s.syntax("unterminated escape")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) || !isHex(d[i+5]) {
					s.pos = i
					return nil, false, s.syntax("invalid \\u escape")
				}
				i += 6
			default:
				s.pos = i
				return nil, false, s.syntax("invalid escape")
			}
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	s.pos = len(d)
	return nil, false, s.syntax("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
