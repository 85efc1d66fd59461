package npm

import (
	"math/bits"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
)

// Wire encoding of the sync-phase payloads. Each payload kind has exactly
// one encoding, and an empty payload means "nothing to send".
//
// Reduce payloads are sectioned by the receiver's gather threads: section
// t holds only keys in gather thread t's key range, so each receiving
// thread decodes exactly its own section. The frame is
//
//	payload := present lens sections
//	present := ceil(T/8) bytes; bit t set iff section t is non-empty
//	lens    := one uvarint body length per present section, ascending t
//	section := form body
//
// where the form byte picks, by encoded size, between a sparse body
// (uvarint entry count, then base-relative uvarint keys with values) and a
// dense body (a bitmap over the section's key range with values in
// ascending key order). Keys are base-relative — uvarint deltas from the
// section's range base — not delta-chained against the previous key:
// sections concatenate the combine threads' cells in insertion order, so
// consecutive keys are unsorted and a chain would need per-cell restart
// markers. Base-relative deltas are order independent, which keeps the
// encoded size (and hence the comm_bytes the bench gate pins)
// deterministic across runs. Values are fixed width (Codec.Size).
//
//kimbap:wiregroup sectionForm
const (
	sectionSparse byte = 0 // [uvarint count][count x (uvarint key-rel, value)]
	sectionDense  byte = 1 // [uvarint maskBytes][mask][values, ascending key]
)

// sectionPresent reports whether section t's bit is set in a present
// bitmap.
func sectionPresent(present []byte, t int) bool {
	return present[t/8]&(1<<(uint(t)%8)) != 0
}

// reduceSection extracts gather thread t's section from a non-empty reduce
// payload; an absent section decodes as empty. Payloads come from peer
// hosts in the same process, so malformed input panics; the fuzz target
// exercises reduceSectionChecked instead.
func reduceSection(payload []byte, t, threads int) []byte {
	maskLen := (threads + 7) / 8
	present := payload[:maskLen]
	if !sectionPresent(present, t) {
		return nil
	}
	b := payload[maskLen:]
	var before, secLen uint64
	for rt := 0; rt < threads; rt++ {
		if !sectionPresent(present, rt) {
			continue
		}
		var ln uint64
		ln, b = comm.ReadUvarint(b)
		if rt < t {
			before += ln
		} else if rt == t {
			secLen = ln
		}
	}
	return b[before : before+secLen]
}

// reduceSectionChecked is reduceSection over untrusted bytes: it reports
// malformed input (truncated header, section lengths that do not add up to
// the bytes after the header) instead of panicking. The decoder fuzz
// target uses it to prove the trusted decoder's bounds arithmetic never
// reads out of range.
func reduceSectionChecked(payload []byte, t, threads int) (sec []byte, ok bool) {
	maskLen := (threads + 7) / 8
	if t < 0 || t >= threads || len(payload) < maskLen {
		return nil, false
	}
	present := payload[:maskLen]
	b := payload[maskLen:]
	var before, secLen, total uint64
	for rt := 0; rt < threads; rt++ {
		if !sectionPresent(present, rt) {
			continue
		}
		ln, rest, lok := comm.ReadUvarintChecked(b)
		if !lok || ln > uint64(len(rest)) {
			return nil, false
		}
		b = rest
		if rt < t {
			before += ln
		} else if rt == t {
			secLen = ln
		}
		total += ln
	}
	// Every length is walked, present section or not, so a payload whose
	// lengths overrun (or underrun) its body is rejected whichever section
	// is asked for.
	if total != uint64(len(b)) {
		return nil, false
	}
	return b[before : before+secLen], true
}

// appendReduceHeader appends the present bitmap and the body lengths of a
// reduce payload over threads sections; bodyLen(rt) is section rt's
// encoded length including its form byte, 0 for an absent section.
func appendReduceHeader(buf []byte, threads int, bodyLen func(rt int) int) []byte {
	pm := len(buf)
	for i := 0; i < (threads+7)/8; i++ {
		buf = append(buf, 0)
	}
	for rt := 0; rt < threads; rt++ {
		if n := bodyLen(rt); n > 0 {
			buf[pm+rt/8] |= 1 << (uint(rt) % 8)
			buf = comm.AppendUvarint(buf, uint64(n))
		}
	}
	return buf
}

// decodeSection decodes one section addressed to a gather thread whose key
// range starts at base, calling apply once per entry. Both map kinds decode
// through it.
func decodeSection[V any](sec []byte, codec Codec[V], base graph.NodeID, apply func(graph.NodeID, V)) {
	if len(sec) == 0 {
		return
	}
	form := sec[0]
	sec = sec[1:]
	switch form {
	case sectionSparse:
		var n uint64
		n, sec = comm.ReadUvarint(sec)
		for i := uint64(0); i < n; i++ {
			var d uint64
			d, sec = comm.ReadUvarint(sec)
			var v V
			v, sec = codec.Read(sec)
			apply(base+graph.NodeID(d), v)
		}
	case sectionDense:
		var mb uint64
		mb, sec = comm.ReadUvarint(sec)
		mask := sec[:mb]
		sec = sec[mb:]
		for bi, mbyte := range mask {
			for mbyte != 0 {
				d := bi*8 + bits.TrailingZeros8(mbyte)
				mbyte &= mbyte - 1
				var v V
				v, sec = codec.Read(sec)
				apply(base+graph.NodeID(d), v)
			}
		}
	}
}

// validSection reports whether sec is a section decodeSection may trust for
// a gather thread owning keyRange keys: nothing at all (absent section), or
// a form byte followed by a self-delimiting sparse or dense body with no
// trailing bytes whose every key lies inside the range. A key past the
// range would make the decoder apply to another gather thread's masters (a
// data race) or past the end of the master vector.
func validSection(sec []byte, valSize int, keyRange uint64) bool {
	if len(sec) == 0 {
		return true
	}
	switch sec[0] {
	case sectionSparse:
		count, rest, ok := comm.ReadUvarintChecked(sec[1:])
		if !ok {
			return false
		}
		sec = rest
		for n := uint64(0); n < count; n++ {
			d, rest, ok := comm.ReadUvarintChecked(sec)
			if !ok || d >= keyRange {
				return false
			}
			sec = rest
			if len(sec) < valSize {
				return false
			}
			sec = sec[valSize:]
		}
		return len(sec) == 0
	case sectionDense:
		maskBytes, rest, ok := comm.ReadUvarintChecked(sec[1:])
		if !ok || maskBytes > uint64(len(rest)) {
			return false
		}
		mask := rest[:maskBytes]
		vals := rest[maskBytes:]
		pop := 0
		for bi, m := range mask {
			if m == 0 {
				continue
			}
			if top := uint64(bi*8 + 7 - bits.LeadingZeros8(m)); top >= keyRange {
				return false
			}
			pop += bits.OnesCount8(m)
		}
		return len(vals) == pop*valSize
	default:
		return false
	}
}

// appendIDList encodes a request-ID list (sorted ascending — the request
// paths build them from ascending bitset walks or pre-sorted pin sets) as
// delta-varints: the first ID, then successive differences, which are
// small for the clustered request sets graph traversals produce. An empty
// list encodes as an empty payload.
func appendIDList(buf []byte, ids []graph.NodeID) []byte {
	prev := graph.NodeID(0)
	for _, id := range ids {
		buf = comm.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// idListDecoder walks an appendIDList payload in order. It is a by-value
// iterator so the serve loops in the request paths decode with zero
// allocations.
type idListDecoder struct {
	b  []byte
	id uint64 // running delta accumulator
}

// next returns the next ID, or ok=false at the end of the list.
func (d *idListDecoder) next() (graph.NodeID, bool) {
	if len(d.b) == 0 {
		return 0, false
	}
	var delta uint64
	delta, d.b = comm.ReadUvarint(d.b)
	d.id += delta
	return graph.NodeID(d.id), true
}
