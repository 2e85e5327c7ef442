package corpus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// The journal's wire format: a 5-byte magic+version header followed by
// one CRC-checked frame per record:
//
//	frame = uvarint(len(body)) | crc32c(body), little-endian | body
//	body  = kind byte | uvarint(seq) | the kind's fields
//
// Fields are written in a fixed order with no tags: ints as zigzag
// varints (IDs may be -1), Scene.Seed as a uvarint, bools as one 0/1
// byte, floats as the 8 little-endian bytes of their IEEE-754 bits (so
// NaN payloads and -0 round-trip exactly), strings and slices as a
// uvarint length followed by their bytes or elements. A zero-length
// slice decodes as nil. Every field has exactly one encoding — varints
// must be minimal — so re-encoding a decoded record reproduces its
// bytes.
//
// The reader stops cleanly at the first short frame, CRC mismatch or
// malformed body: the tail a crash mid-write leaves behind. The
// snapshot (snapshot.go) is the same frames behind its own header.
//
// Unlike the store blob in internal/oracle, the corpus formats have no
// legacy form: a missing header or any version but this build's fails
// loudly.
var journalMagic = [4]byte{'A', 'M', 'S', 'J'}

const (
	journalVersion = 2
	headerLen      = 5 // magic + version byte

	// maxRecordLen bounds a single frame's declared body size, so a
	// corrupt length prefix cannot ask the reader to allocate gigabytes.
	maxRecordLen = 64 << 20

	// frameReserve is the most bytes a frame's prefix can take: the
	// longest uvarint length plus the CRC.
	frameReserve = binary.MaxVarintLen64 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds: the three events of an item's durable lifecycle.
const (
	kindAdmit  = 1 // an item entered the corpus (scene + tag)
	kindOutput = 2 // one (item, model) output was memoized
	kindCommit = 3 // the item's schedule completed (result finalized)
)

// record is the tagged union all three journal events share. Only the
// fields of the record's Kind are meaningful.
type record struct {
	Kind int
	Seq  int // corpus sequence number of the item the event belongs to

	// kindAdmit
	Tag   string
	Scene synth.Scene

	// kindOutput
	Model int
	Out   zoo.Output

	// kindCommit
	Executed   []int
	ScheduleMS float64
}

// appendFrame appends rec's frame to dst. The body is encoded into the
// reserved prefix's tail and slid left once its length and CRC are
// known, so framing costs no second buffer.
func appendFrame(dst []byte, rec *record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameReserve)...)
	dst = appendBody(dst, rec)
	body := dst[start+frameReserve:]
	var pre [frameReserve]byte
	n := binary.PutUvarint(pre[:], uint64(len(body)))
	binary.LittleEndian.PutUint32(pre[n:], crc32.Checksum(body, castagnoli))
	n += 4
	copy(dst[start:], pre[:n])
	copy(dst[start+n:], body)
	return dst[:start+n+len(body)]
}

func appendBody(b []byte, rec *record) []byte {
	b = append(b, byte(rec.Kind))
	b = binary.AppendUvarint(b, uint64(rec.Seq))
	switch rec.Kind {
	case kindAdmit:
		s := &rec.Scene
		b = binary.AppendUvarint(b, uint64(len(rec.Tag)))
		b = append(b, rec.Tag...)
		b = appendInt(b, s.ID)
		b = binary.AppendUvarint(b, s.Seed)
		b = appendInt(b, s.Place)
		b = appendBool(b, s.Indoor)
		b = appendInts(b, s.Objects)
		b = appendInt(b, s.Persons)
		b = appendInt(b, s.Faces)
		b = appendInt(b, s.Emotion)
		b = appendInt(b, s.Gender)
		b = appendInt(b, s.Action)
		b = appendInts(b, s.PoseKP)
		b = appendInts(b, s.HandKP)
		b = appendInt(b, s.Dog)
	case kindOutput:
		b = appendInt(b, rec.Model)
		b = binary.AppendUvarint(b, uint64(len(rec.Out.Labels)))
		for _, lc := range rec.Out.Labels {
			b = appendInt(b, lc.ID)
			b = appendFloat(b, lc.Conf)
		}
	case kindCommit:
		b = appendInts(b, rec.Executed)
		b = appendFloat(b, rec.ScheduleMS)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendInts(b []byte, s []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = appendInt(b, v)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// parseJournal decodes the records of a journal image (everything after
// the header) in order, handing each to fn, and returns the offset just
// past the last good frame, relative to the start of data: a crash can
// leave a partial record at the tail, which is not an error — the
// caller truncates the file there and appends over it. fn's record is
// reused for the next frame, but the slices and strings in it are not,
// so fn may keep those. An error from fn stops the parse and is
// returned with the offset of the frame it rejected.
func parseJournal(data []byte, fn func(*record) error) (goodOffset int, err error) {
	off := 0
	var rec record
	for off < len(data) {
		body, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		rec = record{}
		if !decodeRecord(body, &rec) {
			break
		}
		if err := fn(&rec); err != nil {
			return off, err
		}
		off = next
	}
	return off, nil
}

// nextFrame returns the body of the frame at data[off:] and the offset
// just past it; ok is false for a short frame, an oversized or
// non-minimal length, or a CRC mismatch.
func nextFrame(data []byte, off int) (body []byte, next int, ok bool) {
	d := decoder{b: data[off:]}
	length := d.uvarint()
	if d.bad || length > maxRecordLen || uint64(len(d.b)) < 4+length {
		return nil, 0, false
	}
	sum := binary.LittleEndian.Uint32(d.b)
	body = d.b[4 : 4+length]
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, false
	}
	return body, len(data) - len(d.b) + 4 + int(length), true
}

// decodeRecord decodes one frame body into rec. It reports false for a
// malformed body: an unknown kind, a field running past the end, a
// declared count larger than the bytes left could hold, a non-minimal
// varint, or trailing bytes.
func decodeRecord(body []byte, rec *record) bool {
	d := decoder{b: body}
	rec.Kind = int(d.byte())
	rec.Seq = d.nonNegInt()
	switch rec.Kind {
	case kindAdmit:
		s := &rec.Scene
		rec.Tag = string(d.bytes(d.count(1)))
		s.ID = d.int()
		s.Seed = d.uvarint()
		s.Place = d.int()
		s.Indoor = d.bool()
		s.Objects = d.ints()
		s.Persons = d.int()
		s.Faces = d.int()
		s.Emotion = d.int()
		s.Gender = d.int()
		s.Action = d.int()
		s.PoseKP = d.ints()
		s.HandKP = d.ints()
		s.Dog = d.int()
	case kindOutput:
		rec.Model = d.int()
		if n := d.count(9); n > 0 { // a label takes at least 1 + 8 bytes
			rec.Out.Labels = make([]zoo.LabelConf, n)
			for i := range rec.Out.Labels {
				rec.Out.Labels[i] = zoo.LabelConf{ID: d.int(), Conf: d.float()}
			}
		}
	case kindCommit:
		rec.Executed = d.ints()
		rec.ScheduleMS = d.float()
	default:
		return false
	}
	return !d.bad && len(d.b) == 0
}

// decoder reads a frame body front to back. The first malformed field
// sets bad and empties the input, so every later read fails too and the
// caller checks once at the end.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad = true
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// uvarint reads a minimally encoded uvarint: a multi-byte encoding
// ending in a zero byte carries padding, so it is refused.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zigzag varint that fits an int.
func (d *decoder) int() int {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		d.fail()
		return 0
	}
	return int(x)
}

// nonNegInt reads a uvarint that fits a non-negative int.
func (d *decoder) nonNegInt() int {
	u := d.uvarint()
	if u > math.MaxInt {
		d.fail()
		return 0
	}
	return int(u)
}

// count reads a length whose elements take at least minSize bytes each,
// refusing any the remaining input could not hold.
func (d *decoder) count(minSize int) int {
	n := d.nonNegInt()
	if n > len(d.b)/minSize {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) bytes(n int) []byte {
	if d.bad {
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.int()
	}
	return s
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

// checkHeader validates a journal or snapshot header. Only this build's
// exact version is accepted: an older file would fail its first frame
// check and be mistaken for a torn tail, so it is refused before any
// replay can truncate it.
func checkHeader(data []byte, magic [4]byte, version byte, what string) error {
	if len(data) < headerLen || !bytes.Equal(data[:4], magic[:]) {
		return fmt.Errorf("corpus: %s has no %s header (not a corpus file, or written before versioning)", what, string(magic[:]))
	}
	switch v := data[4]; {
	case v > version:
		return fmt.Errorf("corpus: %s format version %d is newer than this build supports (%d)",
			what, v, version)
	case v < version:
		return fmt.Errorf("corpus: %s format version %d is older than this build's version %d and cannot be opened (no migration exists)",
			what, v, version)
	}
	return nil
}

// header renders a magic+version header.
func header(magic [4]byte, version byte) []byte {
	return append(magic[:len(magic):len(magic)], version)
}
