package v1

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"respin/internal/endurance"
)

// statusBodies returns the canonical encoding of one envelope per
// status, built around the golden document: complete (the golden body
// itself), partial, wear-out, and error, which carries no result.
func statusBodies(t *testing.T) map[string][]byte {
	t.Helper()
	golden := goldenBody(t)
	doc, err := decodeRunResultReference(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	partial, wear := doc, doc
	partial.Status, partial.Detail = StatusPartial, context.Canceled.Error()
	wear.Status = StatusWearOut
	wear.Detail = (&endurance.WearOutError{Array: "cluster2.l2", Set: 7, Cycle: 900}).Error()
	bodies := map[string][]byte{StatusComplete: golden}
	for _, d := range []RunResult{partial, wear, ErrorResult(doc.Request, errors.New("sim: no such benchmark"))} {
		if bodies[d.Status], err = EncodeBytes(d); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// TestDecodeRunResultFastPath: every body the encoder writes, one per
// status, takes the canonical fast path, decodes to the reference
// document, and keeps Result as a sub-slice of the body rather than a
// copy. An encoder change that sends these bodies down the slow path
// fails here.
func TestDecodeRunResultFastPath(t *testing.T) {
	t.Parallel()
	for status, body := range statusBodies(t) {
		got, ok := decodeCanonicalResult(body)
		if !ok {
			t.Errorf("%s: the canonical body fell back to the reference decode", status)
			continue
		}
		want, err := decodeRunResultReference(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: reference decode: %v", status, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path decoded\n%+v\nreference decoded\n%+v", status, got, want)
		}
		if status == StatusError {
			if got.Result != nil {
				t.Errorf("error envelope decoded a result")
			}
			continue
		}
		if off := bytes.Index(body, got.Result); off < 0 || &body[off] != &got.Result[0] || cap(got.Result) != len(got.Result) {
			t.Errorf("%s: Result is not a capped sub-slice of the body", status)
		}
	}
}

// TestDecodeRunResultAllocs: decoding the golden body allocates one
// body-sized read buffer plus small change for the request member and
// the decoder state, not a second copy of the result.
func TestDecodeRunResultAllocs(t *testing.T) {
	const smallChange = 8 << 10
	body := goldenBody(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := DecodeRunResult(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(body) + smallChange); perDecode > limit {
		t.Fatalf("decoding the %d-byte golden body allocates %d bytes, limit %d", len(body), perDecode, limit)
	}
}

// TestDecodeRejectsTrailingBrackets: a closing bracket after the
// document is trailing data for every strict decoder, as any other
// byte is, and whitespace alone is not.
func TestDecodeRejectsTrailingBrackets(t *testing.T) {
	t.Parallel()
	const req = `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft"}`
	const sweep = `{"schema_version":"respin/v1","preset":"fig9"}`
	result := string(goldenBody(t))
	decoders := []struct {
		name string
		doc  string
		dec  func(io.Reader) error
	}{
		{"run request", req, func(r io.Reader) error { _, err := DecodeRunRequest(r); return err }},
		{"sweep request", sweep, func(r io.Reader) error { _, err := DecodeSweepRequest(r); return err }},
		{"run result", result, func(r io.Reader) error { _, err := DecodeRunResult(r); return err }},
	}
	for _, d := range decoders {
		if err := d.dec(strings.NewReader(d.doc + " \t\r\n")); err != nil {
			t.Errorf("%s with trailing whitespace: %v", d.name, err)
		}
		for _, tail := range []string{"}", "]", "}\n", " ]]]", "\n}]\n", "x"} {
			err := d.dec(strings.NewReader(d.doc + tail))
			if err == nil || err.Error() != "api: trailing data after document" {
				t.Errorf("%s + %q: err = %v, want trailing data", d.name, tail, err)
			}
		}
	}
}

// TestDecodeRunResultDepthLimit: the fast path's nesting limit is
// encoding/json's, the envelope counting as the first level, and both
// paths agree on either side of it.
func TestDecodeRunResultDepthLimit(t *testing.T) {
	t.Parallel()
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		body := `{"schema_version": "respin/v1", "result": ` +
			strings.Repeat("[", depth) + strings.Repeat("]", depth) + "}"
		_, fast := decodeCanonicalResult([]byte(body))
		_, err := decodeRunResultReference(strings.NewReader(body))
		if fast != (err == nil) {
			t.Errorf("result nested %d deep: fast path ok=%v, reference err=%v", depth, fast, err)
		}
		if depth < maxNestingDepth && !fast {
			t.Errorf("result nested %d deep (within the limit) fell back", depth)
		}
	}
}

// TestDecodeRunResultReadError: a reader that fails mid-body gets the
// reference decoder's answer for the same bytes followed by the same
// error.
func TestDecodeRunResultReadError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	head := goldenBody(t)[:100]
	_, got := DecodeRunResult(io.MultiReader(bytes.NewReader(head), iotest.ErrReader(boom)))
	_, want := decodeRunResultReference(io.MultiReader(bytes.NewReader(head), iotest.ErrReader(boom)))
	if !errors.Is(got, boom) || got.Error() != want.Error() {
		t.Fatalf("read error: got %v, reference %v", got, want)
	}
}
