package npm

import (
	"bytes"
	"math/rand"
	"testing"

	"kimbap/internal/graph"
)

// buildReducePayload frames section bodies (form byte included, empty
// slice = absent) the way reducePayload does.
func buildReducePayload(sections [][]byte) []byte {
	buf := appendReduceHeader(nil, len(sections), func(rt int) int { return len(sections[rt]) })
	for _, sec := range sections {
		buf = append(buf, sec...)
	}
	return buf
}

// rawCodec treats values as opaque fixed-width byte strings, so the codec
// tests can drive decodeSection at any value width.
type rawCodec int

func (c rawCodec) Append(b []byte, v []byte) []byte { return append(b, v...) }
func (c rawCodec) Read(b []byte) ([]byte, []byte)   { return b[:c], b[c:] }
func (c rawCodec) Size() int                        { return int(c) }

func TestReduceSectionRoundTrip(t *testing.T) {
	// Section bodies as reducePayload emits them: a form byte then a
	// self-delimiting sparse or dense body; absent sections decode empty.
	rng := rand.New(rand.NewSource(7))
	sparse := append([]byte{sectionSparse, 2}, 0x03, 0xaa, 0xbb, 0x05, 0xcc, 0xdd)
	dense := append([]byte{sectionDense, 1, 0b101}, 0x10, 0x11, 0x20, 0x21)
	for _, threads := range []int{1, 2, 4, 7, 9} {
		sections := make([][]byte, threads)
		for i := range sections {
			switch rng.Intn(4) {
			case 0:
				sections[i] = sparse
			case 1:
				sections[i] = nil // skipped section
			case 2:
				sections[i] = dense
			default:
				// Arbitrary bytes: the framing must not look inside.
				sec := make([]byte, 1+rng.Intn(200))
				rng.Read(sec)
				sections[i] = sec
			}
		}
		payload := buildReducePayload(sections)
		for ti := 0; ti < threads; ti++ {
			sec := reduceSection(payload, ti, threads)
			if !bytes.Equal(sec, sections[ti]) {
				t.Fatalf("threads %d: section %d mismatch: %x vs %x", threads, ti, sec, sections[ti])
			}
			csec, ok := reduceSectionChecked(payload, ti, threads)
			if !ok || !bytes.Equal(csec, sec) {
				t.Fatalf("threads %d: checked decoder disagrees (ok=%v)", threads, ok)
			}
		}
	}
}

func TestValidSection(t *testing.T) {
	cases := map[string]struct {
		sec      []byte
		valSize  int
		keyRange uint64
		want     bool
	}{
		"absent":             {nil, 4, 0, true},
		"sparse ok":          {[]byte{sectionSparse, 1, 0x07, 9, 9}, 2, 8, true},
		"sparse short value": {[]byte{sectionSparse, 1, 0x07, 9}, 2, 8, false},
		"sparse trailing":    {[]byte{sectionSparse, 1, 0x07, 9, 9, 0}, 2, 8, false},
		"sparse bad count":   {[]byte{sectionSparse, 9, 0x07, 9, 9}, 2, 8, false},
		"sparse key past":    {[]byte{sectionSparse, 1, 0x08, 9, 9}, 2, 8, false},
		"sparse key at end":  {[]byte{sectionSparse, 1, 0x07, 9, 9}, 2, 7, false},
		"dense ok":           {[]byte{sectionDense, 1, 0b11, 1, 2, 3, 4}, 2, 2, true},
		"dense pop mismatch": {[]byte{sectionDense, 1, 0b11, 1, 2, 3}, 2, 2, false},
		"dense mask past":    {[]byte{sectionDense, 9, 0b11}, 2, 2, false},
		"dense bit past":     {[]byte{sectionDense, 1, 0b101, 1, 2, 3, 4}, 2, 2, false},
		"dense byte past":    {[]byte{sectionDense, 2, 0, 0b1, 1, 2}, 2, 8, false},
		"dense zero tail":    {[]byte{sectionDense, 2, 0b1, 0, 1, 2}, 2, 8, true},
		"unknown form":       {[]byte{7, 0}, 2, 8, false},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if got := validSection(c.sec, c.valSize, c.keyRange); got != c.want {
				t.Errorf("valid = %v, want %v", got, c.want)
			}
		})
	}
}

func TestReduceSectionCheckedRejectsMalformed(t *testing.T) {
	good := buildReducePayload([][]byte{{1, 2, 3}, {4, 5}})
	cases := map[string]struct {
		payload []byte
		t       int
	}{
		"empty":                {[]byte{}, 0},
		"truncated":            {good[:len(good)-1], 1}, // section 1 now ends past the payload
		"header only":          {good[:2], 0},
		"length past":          {[]byte{0b01, 0x10, 1, 2}, 0},
		"absent, lengths past": {[]byte{0b10, 0x10, 1, 2}, 0},
		"bad t":                {good, 2},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, ok := reduceSectionChecked(c.payload, c.t, 2); ok {
				t.Error("checked decoder accepted malformed payload")
			}
		})
	}
	// And the original stays decodable.
	if _, ok := reduceSectionChecked(good, 1, 2); !ok {
		t.Fatal("checked decoder rejected a well-formed payload")
	}
}

func TestIDListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		ids := make([]graph.NodeID, 0, n)
		next := graph.NodeID(rng.Intn(10))
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next += graph.NodeID(1 + rng.Intn(1000)) // sorted, gappy
		}
		payload := appendIDList(nil, ids)
		if n == 0 && payload != nil {
			t.Fatalf("empty list encoded to %d bytes", len(payload))
		}
		var got []graph.NodeID
		dec := idListDecoder{b: payload}
		for id, ok := dec.next(); ok; id, ok = dec.next() {
			got = append(got, id)
		}
		if len(got) != len(ids) {
			t.Fatalf("decoded %d ids, want %d", len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("id %d = %d, want %d", i, got[i], ids[i])
			}
		}
	}
}

// Dense consecutive ID lists — the common request pattern — must get the
// promised compression: one byte per ID after the first.
func TestIDListCompression(t *testing.T) {
	ids := make([]graph.NodeID, 128)
	for i := range ids {
		ids[i] = graph.NodeID(100000 + i)
	}
	// 3-byte first delta + 1 byte per subsequent ID
	if got, want := len(appendIDList(nil, ids)), 3+(len(ids)-1); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

// FuzzDecodeSection drives the checked reduce-payload decoder with
// arbitrary bytes: it must never panic or read out of bounds, whenever it
// accepts a payload the trusted (panicking) decoder must agree with it byte
// for byte, and whenever validSection accepts the extracted section the
// trusted section decoder must apply only keys inside the gather thread's
// range. The low three bits of threads pick the thread count; the rest
// pick the section's key range (1..32 keys), so both mask-byte-aligned and
// ragged ranges are covered.
func FuzzDecodeSection(f *testing.F) {
	f.Add(buildReducePayload([][]byte{{sectionSparse, 1, 0x01, 0xaa, 0xbb}, nil}), uint8(2+8*3), uint8(0), uint8(2))
	f.Add(buildReducePayload([][]byte{nil, nil, nil, nil}), uint8(4), uint8(3), uint8(8))
	f.Add([]byte{0b1, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(0), uint8(4))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(4))
	// Sparse + absent sections, dense bitmap form, and a payload whose
	// present bitmap promises a section the length header omits.
	f.Add(buildReducePayload([][]byte{
		{sectionSparse, 2, 0x01, 0xaa, 0xbb, 0x04, 0xcc, 0xdd}, nil,
	}), uint8(2+8*7), uint8(0), uint8(2))
	f.Add(buildReducePayload([][]byte{
		nil, {sectionDense, 1, 0b1001, 1, 2, 3, 4}, nil, nil,
	}), uint8(4+8*3), uint8(1), uint8(2))
	f.Add([]byte{0b11, 0x05, 0x01}, uint8(2), uint8(1), uint8(4))
	// Keys one past a 4-key range (threads 2+8*3 → 2 threads, range 4):
	// a sparse delta of 4, and a dense mask with bit 4 set.
	f.Add(buildReducePayload([][]byte{{sectionSparse, 1, 0x04, 0xaa, 0xbb}, nil}), uint8(2+8*3), uint8(0), uint8(2))
	f.Add(buildReducePayload([][]byte{nil, {sectionDense, 1, 0b10001, 1, 2, 3, 4}}), uint8(2+8*3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, payload []byte, threads, tid, valSize uint8) {
		th := int(threads)%8 + 1
		ti := int(tid) % th
		vs := int(valSize) % 17
		keyRange := uint64(threads)/8 + 1
		sec, ok := reduceSectionChecked(payload, ti, th)
		if !ok {
			return
		}
		if tsec := reduceSection(payload, ti, th); !bytes.Equal(tsec, sec) {
			t.Fatalf("trusted and checked decoders disagree: %x vs %x", tsec, sec)
		}
		if !validSection(sec, vs, keyRange) {
			return
		}
		decodeSection(sec, rawCodec(vs), 0, func(k graph.NodeID, v []byte) {
			if uint64(k) >= keyRange || len(v) != vs {
				t.Fatalf("decoded key %d (value %d bytes) outside a %d-key range", k, len(v), keyRange)
			}
		})
	})
}
