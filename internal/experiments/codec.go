// Binary encoding of the artifact-cache records (caching.go). A record is
// a positional sequence of fields with no self-description, so the
// layout lives in one encode/decode pair per record and schemaVersion
// names it:
//
//   - integers are uvarints (lengths, counts, table indexes, source
//     positions) or zigzag varints (everything else);
//   - float64s are their raw IEEE-754 bits, 8 bytes little-endian, so a
//     decoded ratio prints exactly as the computed one did;
//   - strings and byte slices are a uvarint length and the bytes;
//   - flags are one byte, 0 or 1;
//   - FuncID file paths go through a per-record string table: a path is
//     written once, at its first use, and later uses write its index, so
//     decoded FuncIDs of one file share one string.
//
// Decoding is strict, so that every accepted record re-encodes to the same
// bytes: a length or count larger than the remaining bytes could hold, a
// non-minimal varint, a flag byte other than 0 or 1, a string-table index
// past the table or a repeated table entry, an out-of-range value, and
// trailing bytes are all errors. Lengths are checked before anything is
// allocated, so a decode allocates in proportion to its input.
package experiments

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/callgraph"
)

// recWriter appends one record's fields to buf.
type recWriter struct {
	buf   []byte
	table map[string]uint64
}

func (w *recWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *recWriter) int(v int) { w.buf = binary.AppendVarint(w.buf, int64(v)) }

func (w *recWriter) float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *recWriter) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *recWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *recWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// tableString writes s as a string-table index, followed by s itself when
// this is its first use in the record.
func (w *recWriter) tableString(s string) {
	if i, ok := w.table[s]; ok {
		w.uvarint(i)
		return
	}
	if w.table == nil {
		w.table = map[string]uint64{}
	}
	i := uint64(len(w.table))
	w.table[s] = i
	w.uvarint(i)
	w.string(s)
}

func (w *recWriter) funcID(f callgraph.FuncID) {
	w.tableString(f.File)
	w.uvarint(uint64(f.Line))
	w.uvarint(uint64(f.Col))
}

func (w *recWriter) funcs(fs []callgraph.FuncID) {
	w.uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.funcID(f)
	}
}

// recReader decodes one record's fields from buf. The first malformed
// field sets err and empties buf, so every later read fails fast and
// returns a zero value; callers check err once, through end.
type recReader struct {
	buf   []byte
	err   error
	table []string
	seen  map[string]bool
}

var (
	errShort    = errors.New("cache record: truncated")
	errVarint   = errors.New("cache record: non-minimal or overflowing varint")
	errRange    = errors.New("cache record: value out of range")
	errTag      = errors.New("cache record: unknown flag or string-table tag")
	errOrder    = errors.New("cache record: FuncID list not strictly ascending")
	errTrailing = errors.New("cache record: trailing bytes")
)

func (r *recReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// end reports the first decode error, or errTrailing if bytes remain.
func (r *recReader) end() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = errTrailing
	}
	return r.err
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n > 1 && r.buf[n-1] == 0 {
		if n == 0 {
			r.fail(errShort)
		} else {
			r.fail(errVarint)
		}
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// varint64 decodes a zigzag varint through uvarint, so the same
// minimality check applies.
func (r *recReader) varint64() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (r *recReader) int() int {
	v := r.varint64()
	if int64(int(v)) != v {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

// uint decodes a non-negative int written by uvarint.
func (r *recReader) uint() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

// count decodes a length or element count and checks it against the
// remaining bytes, given that each element takes at least minSize bytes.
func (r *recReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minSize) {
		r.fail(errShort)
		return 0
	}
	return int(n)
}

func (r *recReader) float() float64 {
	if len(r.buf) < 8 {
		r.fail(errShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

func (r *recReader) bool() bool {
	if len(r.buf) < 1 {
		r.fail(errShort)
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.fail(errTag)
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

// bytes returns a slice of the record itself, not a copy.
func (r *recReader) bytes() []byte {
	n := r.count(1)
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *recReader) string() string { return string(r.bytes()) }

func (r *recReader) tableString() string {
	i := r.uvarint()
	if i < uint64(len(r.table)) {
		return r.table[i]
	}
	if r.err != nil || i > uint64(len(r.table)) {
		r.fail(errTag)
		return ""
	}
	s := r.string()
	if r.seen[s] {
		r.fail(errTag)
		return ""
	}
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	r.seen[s] = true
	r.table = append(r.table, s)
	return s
}

func (r *recReader) funcID() callgraph.FuncID {
	return callgraph.FuncID{File: r.tableString(), Line: r.uint(), Col: r.uint()}
}

// funcs decodes a funcs list, which must be strictly ascending.
func (r *recReader) funcs() []callgraph.FuncID {
	n := r.count(3) // an encoded FuncID takes at least 3 bytes
	fs := make([]callgraph.FuncID, n)
	for i := range fs {
		fs[i] = r.funcID()
		if r.err != nil {
			return nil
		}
		if i > 0 && !fs[i-1].Before(fs[i]) {
			r.fail(errOrder)
			return nil
		}
	}
	return fs
}
