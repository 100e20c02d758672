package ibc

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// escapes are JSON's single-character escapes and escaped the bytes they
// stand for; json.Marshal writes all but the last.
const escapes, escaped = `"\bfnrt/`, "\"\\\b\f\n\r\t/"

// AppendJSONString appends s quoted as json.Marshal quotes a string:
// `"`, `\`, control characters, `<`, `>`, `&`, U+2028 and U+2029 are
// escaped and each invalid UTF-8 byte becomes \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		i++
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			continue
		}
		dst = append(dst, s[start:i-1]...)
		if k := strings.IndexByte(escaped[:len(escaped)-1], b); k >= 0 {
			dst = append(dst, '\\', escapes[k])
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// JSONReader reads a document expected to be exactly what the append
// encoders write: fixed key order, no whitespace, ASCII strings with
// single-character escapes. On any departure it gives up (Done reports
// false) and the caller hands the same bytes to encoding/json, which
// alone decides what is valid and what it decodes to.
type JSONReader struct {
	Buf    []byte
	pos    int
	failed bool
}

// Fail gives up on the document.
func (r *JSONReader) Fail() { r.failed = true }

// Done reports whether the whole input was read as expected.
func (r *JSONReader) Done() bool { return !r.failed && r.pos == len(r.Buf) }

// Skip consumes lit if the input continues with it.
func (r *JSONReader) Skip(lit string) bool {
	if r.failed || len(r.Buf)-r.pos < len(lit) || string(r.Buf[r.pos:r.pos+len(lit)]) != lit {
		return false
	}
	r.pos += len(lit)
	return true
}

// Expect gives up unless the input continues with lit (Skip refuses
// everything once the reader has given up, so failure is sticky).
func (r *JSONReader) Expect(lit string) { r.failed = !r.Skip(lit) }

// Uint reads a decimal number that fits a uint64.
func (r *JSONReader) Uint() uint64 {
	start := r.pos
	for r.pos < len(r.Buf) && r.Buf[r.pos]-'0' <= 9 {
		r.pos++
	}
	digits := r.Buf[start:r.pos]
	n, err := strconv.ParseUint(string(digits), 10, 64)
	r.failed = r.failed || err != nil || (digits[0] == '0' && len(digits) > 1)
	return n
}

// Bytes reads a quoted string and returns its unescaped content, which
// aliases Buf when the string has no escapes.
func (r *JSONReader) Bytes() []byte {
	r.Expect(`"`)
	var out []byte // set once an escape is met
	start := r.pos
	for !r.failed && r.pos < len(r.Buf) {
		switch c := r.Buf[r.pos]; {
		case c == '"':
			r.pos++
			if out == nil {
				return r.Buf[start : r.pos-1]
			}
			return append(out, r.Buf[start:r.pos-1]...)
		case c == '\\' && r.pos+1 < len(r.Buf):
			if out == nil {
				out = make([]byte, 0, len(r.Buf)-start)
			}
			out = append(out, r.Buf[start:r.pos]...)
			if k := strings.IndexByte(escapes, r.Buf[r.pos+1]); k >= 0 {
				out = append(out, escaped[k])
			} else { // \uXXXX, or not JSON
				r.failed = true
			}
			r.pos += 2
			start = r.pos
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			r.failed = true
		default:
			r.pos++
		}
	}
	r.failed = true // unterminated
	return nil
}

// String reads a quoted string as Bytes does and returns it as a
// substring of src, which holds the same bytes as Buf, when it has no
// escapes: the strings of one document then share src's one allocation.
func (r *JSONReader) String(src string) string {
	start := r.pos + 1
	b := r.Bytes()
	if r.failed {
		return ""
	}
	if end := r.pos - 1; end-start == len(b) {
		return src[start:end]
	}
	return string(b)
}
