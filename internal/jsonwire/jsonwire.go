// Package jsonwire is the one-pass JSON layer under the hand-written Fig. 5
// codecs: a strict reader that accepts exactly the documents encoding/json
// accepts, and the float and string appenders that write exactly the bytes
// encoding/json writes.
//
// The reader decodes as it validates, so a document is scanned once.
// Struct decoders built on it keep encoding/json's rules: keys match a
// field exactly or else under Unicode case folding, unknown keys are
// skipped (and their values still validated), null leaves a string,
// number or struct as it was and sets a slice or pointer to nil, and a
// key that repeats decodes into what the earlier one left.
package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Reader decodes one JSON document from a byte slice.
type Reader struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unescaped string scratch, reused by every string read
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

func (r *Reader) syntaxError(msg string) error {
	return fmt.Errorf("jsonwire: %s at offset %d", msg, r.off)
}

func (r *Reader) typeError(want string) error {
	return fmt.Errorf("jsonwire: found %q where %s belongs at offset %d", r.data[r.off], want, r.off)
}

// peek skips whitespace and returns the first byte of the next value.
func (r *Reader) peek() (byte, error) {
	for r.off < len(r.data) {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return c, nil
		}
	}
	return 0, r.syntaxError("unexpected end of JSON input")
}

// End reports an error unless only whitespace is left.
func (r *Reader) End() error {
	if _, err := r.peek(); err == nil {
		return r.syntaxError("invalid character after top-level value")
	}
	return nil
}

// Null consumes a null literal when one comes next.
func (r *Reader) Null() bool {
	c, err := r.peek()
	if err != nil || c != 'n' || !r.hasPrefix("null") {
		return false
	}
	r.off += 4
	return true
}

// enter opens an object or array.
func (r *Reader) enter() error {
	r.off++
	r.depth++
	if r.depth > maxDepth {
		return r.syntaxError("exceeded max depth")
	}
	return nil
}

// Object decodes an object, calling member once per key with the
// unescaped key. member must read exactly one value, and must be done with
// key before it reads a string.
func (r *Reader) Object(member func(key []byte) error) error {
	c, err := r.peek()
	if err != nil {
		return err
	}
	if c != '{' {
		return r.typeError("object")
	}
	if err := r.enter(); err != nil {
		return err
	}
	if c, err = r.peek(); err != nil {
		return err
	}
	if c == '}' {
		r.off++
		r.depth--
		return nil
	}
	for {
		if c != '"' {
			return r.syntaxError("expected object key")
		}
		key, err := r.stringBytes()
		if err != nil {
			return err
		}
		if c, err = r.peek(); err != nil {
			return err
		}
		if c != ':' {
			return r.syntaxError("expected ':' after object key")
		}
		r.off++
		if err := member(key); err != nil {
			return err
		}
		if c, err = r.peek(); err != nil {
			return err
		}
		r.off++
		switch c {
		case '}':
			r.depth--
			return nil
		case ',':
			if c, err = r.peek(); err != nil {
				return err
			}
		default:
			r.off--
			return r.syntaxError("expected ',' or '}' after object value")
		}
	}
}

// Array decodes an array, calling elem once per element; elem must read
// exactly one value.
func (r *Reader) Array(elem func() error) error {
	c, err := r.peek()
	if err != nil {
		return err
	}
	if c != '[' {
		return r.typeError("array")
	}
	if err := r.enter(); err != nil {
		return err
	}
	if c, err = r.peek(); err != nil {
		return err
	}
	if c == ']' {
		r.off++
		r.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if c, err = r.peek(); err != nil {
			return err
		}
		r.off++
		switch c {
		case ']':
			r.depth--
			return nil
		case ',':
		default:
			r.off--
			return r.syntaxError("expected ',' or ']' after array element")
		}
	}
}

// Slice decodes an array into s the way encoding/json decodes into a
// slice that may already hold elements: element i decodes into s[i] when
// it exists, the slice grows by append, is cut to the array's length, and
// an empty array gives an empty non-nil slice. elem decodes one element
// into *T. The caller handles null.
func Slice[T any](r *Reader, s []T, elem func(*T) error) ([]T, error) {
	i := 0
	err := r.Array(func() error {
		if i < cap(s) {
			s = s[:max(len(s), i+1)]
		} else {
			var zero T
			s = append(s, zero)
		}
		i++
		return elem(&s[i-1])
	})
	if i == 0 {
		s = []T{}
	}
	return s[:i], err
}

// StringInto decodes a string into *p; null leaves *p as it was.
func (r *Reader) StringInto(p *string) error {
	if r.Null() {
		return nil
	}
	c, err := r.peek()
	if err != nil {
		return err
	}
	if c != '"' {
		return r.typeError("string")
	}
	b, err := r.stringBytes()
	if err == nil {
		*p = string(b)
	}
	return err
}

// FloatInto decodes a number into *p; null leaves *p as it was.
func (r *Reader) FloatInto(p *float64) error {
	if r.Null() {
		return nil
	}
	lit, err := r.number("float64")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("jsonwire: number %s overflows float64", lit)
	}
	*p = f
	return nil
}

// IntInto decodes an integer into *p; null leaves *p as it was. A number
// with a fraction or an exponent is an error, as in encoding/json.
func (r *Reader) IntInto(p *int) error {
	if r.Null() {
		return nil
	}
	lit, err := r.number("int")
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("jsonwire: cannot decode number %s into int", lit)
	}
	*p = int(n)
	return nil
}

// Skip validates and discards the next value.
func (r *Reader) Skip() error {
	_, err := r.Raw()
	return err
}

// Raw validates the next value and returns its bytes.
func (r *Reader) Raw() ([]byte, error) {
	c, err := r.peek()
	if err != nil {
		return nil, err
	}
	start := r.off
	switch c {
	case '{':
		err = r.Object(func([]byte) error { return r.Skip() })
	case '[':
		err = r.Array(r.Skip)
	case '"':
		_, err = r.stringBytes()
	case 't':
		err = r.literal("true")
	case 'f':
		err = r.literal("false")
	case 'n':
		err = r.literal("null")
	default:
		_, err = r.number("value")
	}
	return r.data[start:r.off], err
}

func (r *Reader) hasPrefix(word string) bool {
	return len(r.data)-r.off >= len(word) && string(r.data[r.off:r.off+len(word)]) == word
}

func (r *Reader) literal(word string) error {
	if !r.hasPrefix(word) {
		return r.syntaxError("invalid literal")
	}
	r.off += len(word)
	return nil
}

// number scans a number literal by JSON's grammar.
func (r *Reader) number(want string) ([]byte, error) {
	c, err := r.peek()
	if err != nil {
		return nil, err
	}
	if c != '-' && (c < '0' || c > '9') {
		return nil, r.typeError(want)
	}
	d := r.data
	start, i := r.off, r.off
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		r.off = i
		return nil, r.syntaxError("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		if j := skipDigits(d, i+1); j > i+1 {
			i = j
		} else {
			r.off = i + 1
			return nil, r.syntaxError("invalid number fraction")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := skipDigits(d, i); j > i {
			i = j
		} else {
			r.off = i
			return nil, r.syntaxError("invalid number exponent")
		}
	}
	r.off = i
	return d[start:i], nil
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// stringBytes scans the string at r.off and returns its unescaped bytes,
// which alias the input or the reader's scratch buffer. Invalid UTF-8 and
// lone surrogates become U+FFFD, as in encoding/json.
func (r *Reader) stringBytes() ([]byte, error) {
	d := r.data
	start := r.off + 1
	i := start
	for i < len(d) {
		c := d[i]
		if c == '"' {
			r.off = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	b := append(r.buf[:0], d[start:i]...)
	for {
		if i >= len(d) {
			r.off = i
			return nil, r.syntaxError("unexpected end of JSON input in string")
		}
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			r.buf = b
			return b, nil
		case c < ' ':
			r.off = i
			return nil, r.syntaxError("invalid character in string literal")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c == '\\':
			if i+1 >= len(d) {
				r.off = i
				return nil, r.syntaxError("unexpected end of JSON input in string escape")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i+2:])
				if rr < 0 {
					r.off = i
					return nil, r.syntaxError("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if rr1 := hex4Escape(d[i:]); rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.off = i
				return nil, r.syntaxError("invalid escape in string literal")
			}
			i += 2
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				b = append(b, "�"...)
			} else {
				b = append(b, d[i:i+size]...)
			}
			i += size
		}
	}
}

// hex4 reads four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var n rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		n = n*16 + rune(c)
	}
	return n
}

// hex4Escape reads a \uXXXX escape, or returns -1.
func hex4Escape(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// Field returns the index of the name key equals, else of the first name
// it matches under Unicode case folding, else -1: encoding/json's field
// lookup, for names that differ under folding.
func Field(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(string(key), n) {
			return i
		}
	}
	return -1
}

// AppendFloat appends f as encoding/json writes a float64: 'f' format
// unless |f| < 1e-6 or |f| >= 1e21, an exponent without its leading zero
// (e-7, not e-07), and an error for NaN and ±Inf.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendString appends s quoted as encoding/json writes it, with HTML-safe
// escaping. Printable ASCII that needs no escape is copied; anything else
// goes through json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
