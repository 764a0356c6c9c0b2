package v1

import (
	"bytes"
	"io"
)

// The canonical fast path of DecodeRunResult.
//
// Every result a respin binary serves or writes is EncodeBytes output,
// so the strict decode almost always sees one spelling of the envelope.
// decodeCanonicalResult walks exactly that spelling in one validating
// pass and keeps Result as a sub-slice of the body instead of a copy.
// It answers ok=false for anything it is not sure of, and the caller
// then runs the reference decoder (decodeStrict) on the same bytes, so
// the reference alone decides acceptance and error text. The fast path
// only has to guarantee one thing: when it accepts, the reference would
// have accepted the same bytes and produced the same document.

// maxNestingDepth is encoding/json's limit on nested arrays and
// objects, the envelope itself counting as the first level.
const maxNestingDepth = 10000

// Envelope fields, in EncodeBytes order; the index is the field's bit
// in the walker's seen-set.
const (
	fieldSchemaVersion = iota
	fieldRequest
	fieldStatus
	fieldDetail
	fieldError
	fieldResult
)

func envelopeField(key []byte) int {
	switch string(key) {
	case "schema_version":
		return fieldSchemaVersion
	case "request":
		return fieldRequest
	case "status":
		return fieldStatus
	case "detail":
		return fieldDetail
	case "error":
		return fieldError
	case "result":
		return fieldResult
	}
	return -1
}

// readBody reads r to EOF into one buffer, sized from r.Len() when r
// reports its length (bytes.Reader, strings.Reader, bytes.Buffer).
func readBody(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok && l.Len() >= 0 {
		size = l.Len() + 1 // room for the read that reports EOF
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader replays a read error after the bytes read before it, so the
// reference decoder sees the same stream the caller's reader produced.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRunResultReference is the encoding/json decode of a RunResult:
// the fallback for every body the fast path declines.
func decodeRunResultReference(r io.Reader) (RunResult, error) {
	var res RunResult
	if err := decodeStrict(r, &res); err != nil {
		return RunResult{}, err
	}
	if err := requireVersion(res.SchemaVersion); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// decodeCanonicalResult decodes b when it is a RunResult envelope whose
// keys are the six exact field names, each at most once, and whose
// string members are escape-free printable ASCII; the request member
// goes through decodeStrict and the result member through validValue.
// Whitespace is free as in JSON, and nothing but whitespace may follow
// the envelope. ok is false for every other input.
func decodeCanonicalResult(b []byte) (RunResult, bool) {
	var res RunResult
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return RunResult{}, false
	}
	i = skipSpace(b, i+1)
	var seen uint
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return RunResult{}, false
		}
		field := envelopeField(key)
		if field < 0 || seen&(1<<field) != 0 {
			return RunResult{}, false
		}
		seen |= 1 << field
		if i, ok = memberValue(b, j); !ok {
			return RunResult{}, false
		}
		switch field {
		case fieldRequest:
			// null decodes to a zero request, which the reference
			// decides; only an object takes the fast path.
			end, ok := validValue(b, i)
			if !ok || b[i] != '{' || decodeStrict(bytes.NewReader(b[i:end]), &res.Request) != nil {
				return RunResult{}, false
			}
			i = end
		case fieldResult:
			end, ok := validValue(b, i)
			if !ok {
				return RunResult{}, false
			}
			res.Result = b[i:end:end]
			i = end
		default:
			s, end, ok := plainString(b, i)
			if !ok {
				return RunResult{}, false
			}
			*res.stringField(field) = string(s)
			i = end
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return RunResult{}, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
			continue
		case '}':
			if skipSpace(b, i+1) == len(b) {
				return res, true
			}
		}
		return RunResult{}, false
	}
}

// stringField returns the envelope's string member for field.
func (r *RunResult) stringField(field int) *string {
	switch field {
	case fieldSchemaVersion:
		return &r.SchemaVersion
	case fieldStatus:
		return &r.Status
	case fieldDetail:
		return &r.Detail
	}
	return &r.Error
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i (JSON whitespace: space, tab, CR, LF), or len(b).
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return i
		}
	}
	return i
}

// plainString reads the string at b[i] when it is escape-free printable
// ASCII, returning its contents and the index just past its closing
// quote.
func plainString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// memberValue checks the ':' after the key that ends at i and returns
// the index of the member's value.
func memberValue(b []byte, i int) (int, bool) {
	i = skipSpace(b, i)
	if i == len(b) || b[i] != ':' {
		return 0, false
	}
	return skipSpace(b, i+1), true
}

// validValue checks that b[i:] starts with one envelope member's value
// as encoding/json's scanner accepts it — string escapes, control
// bytes, number syntax, literals, and at most maxNestingDepth open
// containers counting the envelope — and returns the index just past
// the value. Like the scanner, it does not check UTF-8.
func validValue(b []byte, i int) (int, bool) {
	var stackBuf [32]byte
	open := stackBuf[:0] // '{' or '[' per open container, innermost last
	for {
		// i is at the start of a value.
		if i == len(b) {
			return 0, false
		}
		var ok bool
		switch c := b[i]; c {
		case '{', '[':
			if 1+len(open) >= maxNestingDepth {
				return 0, false
			}
			open = append(open, c)
			i = skipSpace(b, i+1)
			switch {
			case i < len(b) && b[i] == c+2: // '}' is '{'+2, ']' is '['+2
				open = open[:len(open)-1]
				i, ok = i+1, true
			case c == '[':
				continue
			default:
				if i, ok = objectKey(b, i); !ok {
					return 0, false
				}
				continue
			}
		case '"':
			i, ok = skipString(b, i)
		case 't':
			i, ok = skipLiteral(b, i, "true")
		case 'f':
			i, ok = skipLiteral(b, i, "false")
		case 'n':
			i, ok = skipLiteral(b, i, "null")
		default:
			i, ok = skipNumber(b, i)
		}
		if !ok {
			return 0, false
		}
		// i is just past a value: close containers until one goes on
		// with another element.
		for {
			if len(open) == 0 {
				return i, true
			}
			i = skipSpace(b, i)
			if i == len(b) {
				return 0, false
			}
			top := open[len(open)-1]
			if b[i] == top+2 {
				open = open[:len(open)-1]
				i++
				continue
			}
			if b[i] != ',' {
				return 0, false
			}
			i = skipSpace(b, i+1)
			if top == '{' {
				if i, ok = objectKey(b, i); !ok {
					return 0, false
				}
			}
			break
		}
	}
}

// objectKey checks the key string and ':' of an object member starting
// at i and returns the index of its value.
func objectKey(b []byte, i int) (int, bool) {
	if i == len(b) || b[i] != '"' {
		return 0, false
	}
	i, ok := skipString(b, i)
	if !ok {
		return 0, false
	}
	return memberValue(b, i)
}

// skipString checks the string starting at b[i] == '"' and returns the
// index just past its closing quote.
func skipString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return 0, false
		case c == '\\':
			i++
			if i == len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return 0, false
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return 0, false
					}
				}
				i += 4
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipLiteral checks that b[i:] starts with lit.
func skipLiteral(b []byte, i int, lit string) (int, bool) {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return 0, false
	}
	return i + len(lit), true
}

// skipNumber checks the number starting at b[i] against JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the index
// just past it. What follows is the caller's to check.
func skipNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return 0, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); b[i-1] == '.' {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return 0, false
		}
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// trailingData reports whether rest holds any byte other than JSON
// whitespace.
func trailingData(rest io.Reader) bool {
	var buf [64]byte
	for {
		n, err := rest.Read(buf[:])
		if skipSpace(buf[:n], 0) < n {
			return true
		}
		if err != nil {
			return false
		}
	}
}
