// Package jsonenc appends JSON values to a byte slice exactly as
// encoding/json renders them, for the bill encoders that write their
// documents by hand instead of marshalling through reflection.
//
// Every function here matches encoding/json byte for byte under its
// default settings (json.Marshal / json.MarshalIndent with prefix ""
// and indent "  "): HTML-escaped strings, ES6-style float formatting,
// strict RFC 3339 times. A value encoding/json refuses — a NaN or
// infinite float, a time outside RFC 3339's range — is an error here
// too.
package jsonenc

import (
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// Newline appends a line break followed by level indentation steps of
// two spaces each — what json.MarshalIndent writes before a value or
// key nested level deep.
func Newline(dst []byte, level int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < level; i++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// Key appends the line break, the indentation of level, and the
// quoted object key with its ": " separator. name must need no
// escaping.
func Key(dst []byte, level int, name string) []byte {
	dst = Newline(dst, level)
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':', ' ')
}

// String appends s as a JSON string with encoding/json's escaping:
// '"' and '\\' backslashed, short escapes for \b \f \n \r \t, \u00XX
// for the other control bytes and for the HTML-sensitive < > &,
// \ufffd for each byte of invalid UTF-8, and U+2028 / U+2029 escaped.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as encoding/json renders a float64: shortest
// round-trip digits, plain notation for magnitudes in [1e-6, 1e21)
// (and zero), exponent notation outside it with a two-digit negative
// exponent shortened (e-09 → e-9). NaN and ±Inf are errors.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Time appends t as a quoted RFC 3339 timestamp with nanoseconds, as
// time.Time.MarshalJSON renders it, and fails where MarshalJSON does:
// strict RFC 3339 has no room for a year outside [0, 9999] or a zone
// offset of 24 hours or more.
func Time(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, errors.New("json: error calling MarshalJSON for type time.Time: year outside of range [0,9999]")
	}
	if _, off := t.Zone(); off <= -24*60*60 || off >= 24*60*60 {
		return dst, errors.New("json: error calling MarshalJSON for type time.Time: timezone hour outside of range [0,23]")
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}
