package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// fuzzLineBuf is the NDJSON reader's buffer in FuzzNextOp: small, so long
// lines are common.
const fuzzLineBuf = 64

// FuzzNextOp feeds arbitrary bytes through nextOp over a small reader and
// holds it to a line-at-a-time model of the stream: blank lines are
// skipped, a line that does not fit the buffer with its newline is
// bufio.ErrBufferFull, and any other line decodes exactly as
// json.Unmarshal decodes it alone, with the reader left at the start of
// the next line — one line per call, never more.
func FuzzNextOp(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\n  \n",
		`{"op":"read","addr":1}` + "\n" + `{"op":"write","addr":2,"data":"AAAA"}` + "\n",
		`{"op":"read","addr":1}{"op":"read","addr":2}`,
		"  \n\t{\"addr\":3}\r\n\n",
		"junk\n{\"addr\":4}",
		string(bytes.Repeat([]byte("x"), fuzzLineBuf-1)) + "\n",
		string(bytes.Repeat([]byte("x"), fuzzLineBuf)) + "\n",
		string(bytes.Repeat([]byte(" "), 3*fuzzLineBuf)),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		lines := bufio.NewReaderSize(src, fuzzLineBuf)
		consumed := func() int { return len(data) - src.Len() - lines.Buffered() }
		pos := 0
		for {
			// The model: skip blank lines up to the next line that is
			// either too long or carries an op.
			var line []byte
			long := false
			for {
				line = data[pos:]
				if i := bytes.IndexByte(line, '\n'); i >= 0 {
					line = line[:i+1]
				}
				content := bytes.TrimSuffix(line, []byte("\n"))
				if len(content)+1 > fuzzLineBuf {
					long = true
					break
				}
				if len(bytes.TrimSpace(line)) > 0 || pos+len(line) == len(data) {
					break
				}
				pos += len(line)
			}
			var req opRequest
			err := nextOp(lines, &req)
			switch {
			case long:
				if err != bufio.ErrBufferFull {
					t.Fatalf("line of %d bytes at %d in a %d-byte buffer: got %v, want bufio.ErrBufferFull", len(line), pos, fuzzLineBuf, err)
				}
				return
			case len(bytes.TrimSpace(line)) == 0:
				if err != io.EOF {
					t.Fatalf("blank end of stream at %d: got %v, want io.EOF", pos, err)
				}
				if consumed() != len(data) {
					t.Fatalf("io.EOF with %d of %d bytes consumed", consumed(), len(data))
				}
				return
			}
			var want opRequest
			wantErr := json.Unmarshal(line, &want)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("line %q: nextOp error %v, json.Unmarshal error %v", line, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(req, want) {
				t.Fatalf("line %q: nextOp decoded %+v, want %+v", line, req, want)
			}
			pos += len(line)
			if consumed() != pos {
				t.Fatalf("line %q: reader at %d after the call, want %d (the end of that line)", line, consumed(), pos)
			}
		}
	})
}
