package corpus

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// bitEqual compares two values field by field, floats by their IEEE-754
// bits (so NaN equals the same NaN and -0 differs from +0). Zero-length
// slices compare equal whether nil or not; the codec decodes both as nil.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

func sameRecord(a, b *record) bool { return bitEqual(reflect.ValueOf(*a), reflect.ValueOf(*b)) }

// parseRecords collects every record parseJournal accepts.
func parseRecords(data []byte) (recs []record, goodOffset int) {
	goodOffset, _ = parseJournal(data, func(rec *record) error {
		recs = append(recs, *rec)
		return nil
	})
	return recs, goodOffset
}

// journalImage builds a real journal through the corpus and returns its
// bytes after the header together with its decoded records.
func journalImage(tb testing.TB, n int, models []int) ([]byte, []record) {
	tb.Helper()
	path := tempJournal(tb)
	c := mustOpen(tb, path, Options{})
	populate(tb, c, n, models, n)
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	recs, good := parseRecords(data[headerLen:])
	if good != len(data)-headerLen {
		tb.Fatalf("fresh journal parses %d of %d bytes", good, len(data)-headerLen)
	}
	return data[headerLen:], recs
}

// Edge values the codec must carry exactly.
var (
	edgeInts   = []int{0, 1, -1, 63, -64, 64, 1 << 20, math.MaxInt, math.MinInt}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, 0.5, -2.75, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000f00),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
)

// randRecord draws a record of a random kind, setting only that kind's
// fields, with negative IDs, nil and empty slices and special floats
// mixed in.
func randRecord(r *rand.Rand) record {
	anInt := func() int {
		if r.IntN(3) == 0 {
			return edgeInts[r.IntN(len(edgeInts))]
		}
		return r.IntN(2000) - 1
	}
	aFloat := func() float64 {
		if r.IntN(2) == 0 {
			return edgeFloats[r.IntN(len(edgeFloats))]
		}
		return r.Float64()
	}
	someInts := func() []int {
		switch r.IntN(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		s := make([]int, 1+r.IntN(6))
		for i := range s {
			s[i] = anInt()
		}
		return s
	}
	rec := record{Kind: 1 + r.IntN(3), Seq: r.IntN(1 << 20)}
	if r.IntN(10) == 0 {
		rec.Seq = math.MaxInt
	}
	switch rec.Kind {
	case kindAdmit:
		tag := make([]byte, r.IntN(12))
		for i := range tag {
			tag[i] = byte(r.Uint32()) // not necessarily UTF-8
		}
		rec.Tag = string(tag)
		rec.Scene = synth.Scene{
			ID: anInt(), Seed: r.Uint64(), Place: anInt(), Indoor: r.IntN(2) == 0,
			Objects: someInts(), Persons: anInt(), Faces: anInt(),
			Emotion: -1, Gender: -1, Action: -1,
			PoseKP: someInts(), HandKP: someInts(), Dog: -1,
		}
		if r.IntN(2) == 0 {
			rec.Scene.Emotion, rec.Scene.Gender, rec.Scene.Action, rec.Scene.Dog = anInt(), anInt(), anInt(), anInt()
		}
	case kindOutput:
		rec.Model = anInt()
		switch r.IntN(4) {
		case 0:
		case 1:
			rec.Out.Labels = []zoo.LabelConf{}
		default:
			rec.Out.Labels = make([]zoo.LabelConf, 1+r.IntN(8))
			for i := range rec.Out.Labels {
				rec.Out.Labels[i] = zoo.LabelConf{ID: anInt(), Conf: aFloat()}
			}
		}
	case kindCommit:
		rec.Executed = someInts()
		rec.ScheduleMS = aFloat()
	}
	return rec
}

// TestCodecRoundTripRandom frames random records back to back and
// checks every one decodes bit for bit, with zero-length slices as nil.
func TestCodecRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	want := make([]record, 3000)
	var data []byte
	for i := range want {
		want[i] = randRecord(r)
		data = appendFrame(data, &want[i])
	}
	got, good := parseRecords(data)
	if good != len(data) || len(got) != len(want) {
		t.Fatalf("parsed %d records over %d of %d bytes; want %d records", len(got), good, len(data), len(want))
	}
	for i := range want {
		if !sameRecord(&got[i], &want[i]) {
			t.Fatalf("record %d: decoded %+v, want %+v", i, got[i], want[i])
		}
		for _, s := range [][]int{got[i].Scene.Objects, got[i].Scene.PoseKP, got[i].Scene.HandKP, got[i].Executed} {
			if s != nil && len(s) == 0 {
				t.Fatalf("record %d: empty slice decoded non-nil", i)
			}
		}
		if l := got[i].Out.Labels; l != nil && len(l) == 0 {
			t.Fatalf("record %d: empty labels decoded non-nil", i)
		}
	}
}

// fill sets every field of v to a distinct non-zero value. It fails the
// test on a field kind it does not know, so a new field of any kind
// forces a look at the codec.
func fill(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(-int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next) << 40)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !v.Field(i).CanSet() {
				t.Fatalf("%s.%s is unexported; the codec cannot be checked for it", v.Type(), f.Name)
			}
			fill(t, v.Field(i), next)
		}
	default:
		t.Fatalf("no filler for a %s field; extend the codec and this test", v.Type())
	}
}

// TestCodecCoversEveryField guards the hand-written codec against field
// drift: gob carried new struct fields automatically, the codec only
// carries what it writes. Every field of synth.Scene, zoo.Output and
// zoo.LabelConf is set to a distinct non-zero value and must survive.
func TestCodecCoversEveryField(t *testing.T) {
	next := 0
	var scene synth.Scene
	fill(t, reflect.ValueOf(&scene).Elem(), &next)
	var out zoo.Output
	fill(t, reflect.ValueOf(&out).Elem(), &next)

	for _, want := range []record{
		{Kind: kindAdmit, Seq: 3, Tag: "t", Scene: scene},
		{Kind: kindOutput, Seq: 4, Model: 5, Out: out},
		{Kind: kindCommit, Seq: 6, Executed: []int{2, -1}, ScheduleMS: 7.5},
	} {
		var got record
		body := appendBody(nil, &want)
		if !decodeRecord(body, &got) {
			t.Fatalf("kind %d: body does not decode", want.Kind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d: round trip lost a field:\n got  %+v\n want %+v", want.Kind, got, want)
		}
	}
}

// TestJournalSingleByteFlips flips every byte of a real journal, one at
// a time and with several masks: replay must stop exactly before the
// record holding the flipped byte, and every record it does return must
// be the one written.
func TestJournalSingleByteFlips(t *testing.T) {
	data, want := journalImage(t, 3, []int{0, 4})
	// ends[k] is the offset just past record k.
	ends := make([]int, len(want))
	var enc []byte
	for k := range want {
		enc = appendFrame(enc, &want[k])
		ends[k] = len(enc)
	}
	flipped := make([]byte, len(data))
	for i := range data {
		k := 0
		for ends[k] <= i {
			k++
		}
		start := 0
		if k > 0 {
			start = ends[k-1]
		}
		for _, mask := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff} {
			copy(flipped, data)
			flipped[i] ^= mask
			got, good := parseRecords(flipped)
			if len(got) != k || good != start {
				t.Fatalf("byte %d ^ %#x (record %d): replay kept %d records up to byte %d; want %d up to %d",
					i, mask, k, len(got), good, k, start)
			}
			for j := range got {
				if !sameRecord(&got[j], &want[j]) {
					t.Fatalf("byte %d ^ %#x: record %d decoded differently from what was written", i, mask, j)
				}
			}
		}
	}
}

// TestParseJournalRejectsMalformedBodies covers the body checks a CRC
// cannot: a frame whose CRC is right but whose body is not canonical is
// where replay stops.
func TestParseJournalRejectsMalformedBodies(t *testing.T) {
	good := appendFrame(nil, &record{Kind: kindCommit, Seq: 1, Executed: []int{2}, ScheduleMS: 3})
	cases := map[string][]byte{
		"empty body":         {},
		"unknown kind":       {9, 0},
		"kind zero":          {0, 0},
		"trailing byte":      append(appendBody(nil, &record{Kind: kindCommit, Seq: 1}), 0),
		"padded seq varint":  {kindCommit, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"short float":        {kindCommit, 1, 0, 1, 2, 3},
		"count past end":     {kindCommit, 1, 5, 2},
		"labels past end":    {kindOutput, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"bool not 0 or 1":    append([]byte{kindAdmit, 0, 0, 0, 0, 0, 2}, make([]byte, 9)...),
		"truncated admit":    appendBody(nil, &record{Kind: kindAdmit, Seq: 2, Tag: "x"})[:5],
		"seq beyond MaxInt":  {kindCommit, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"varint overflowing": {kindCommit, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for name, body := range cases {
		var rec record
		if decodeRecord(body, &rec) {
			t.Errorf("%s: malformed body decoded as %+v", name, rec)
			continue
		}
		data := append(append([]byte(nil), good...), rawFrame(body)...)
		data = append(data, good...)
		if recs, off := parseRecords(data); len(recs) != 1 || off != len(good) {
			t.Errorf("%s: replay kept %d records up to byte %d; want 1 up to %d", name, len(recs), off, len(good))
		}
	}
}

// rawFrame frames an arbitrary body with a correct length and CRC,
// spelling out the frame layout independently of appendFrame.
func rawFrame(body []byte) []byte {
	f := binary.AppendUvarint(nil, uint64(len(body)))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(f, body...)
}

// TestFrameLayout pins appendFrame to the documented frame layout.
func TestFrameLayout(t *testing.T) {
	rec := record{Kind: kindOutput, Seq: 300, Model: -1, Out: zoo.Output{Labels: []zoo.LabelConf{{ID: 7, Conf: 0.5}}}}
	body := appendBody(nil, &rec)
	wantBody := []byte{kindOutput, 0xac, 0x02, 0x01, 0x01, 0x0e, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("body % x, want % x", body, wantBody)
	}
	if got, want := appendFrame([]byte("prefix"), &rec), append([]byte("prefix"), rawFrame(wantBody)...); !bytes.Equal(got, want) {
		t.Fatalf("frame % x, want % x", got, want)
	}
}
