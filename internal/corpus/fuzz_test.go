package corpus

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzParseJournal feeds arbitrary bytes to the journal reader. It must
// never panic, and what it accepts must be exactly a prefix of whole
// frames: re-encoding the decoded records reproduces data[:goodOffset]
// byte for byte. The CRC keeps random bytes out of the body decoder, so
// the input is also decoded as a bare frame body, which must likewise
// re-encode to itself when accepted.
func FuzzParseJournal(f *testing.F) {
	data, recs := journalImage(f, 3, []int{0, 4})
	f.Add(data)
	for i := range recs {
		f.Add(appendBody(nil, &recs[i]))
	}
	f.Add([]byte{})
	for cut := 1; cut < len(data); cut += 17 {
		f.Add(data[:cut])
	}
	for _, i := range []int{0, 1, 5, len(data) / 2, len(data) - 1} {
		flipped := bytes.Clone(data)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}
	r := rand.New(rand.NewPCG(3, 4))
	var synthetic []byte
	for range 8 {
		rec := randRecord(r)
		synthetic = appendFrame(synthetic, &rec)
	}
	f.Add(synthetic)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := parseRecords(data)
		if good < 0 || good > len(data) {
			t.Fatalf("goodOffset %d outside [0, %d]", good, len(data))
		}
		var re []byte
		for i := range recs {
			re = appendFrame(re, &recs[i])
		}
		if !bytes.Equal(re, data[:good]) {
			t.Fatalf("re-encoded %d records to %d bytes that differ from the %d accepted", len(recs), len(re), good)
		}
		var rec record
		if decodeRecord(data, &rec) {
			if re := appendBody(nil, &rec); !bytes.Equal(re, data) {
				t.Fatalf("accepted body % x re-encodes to % x", data, re)
			}
		}
	})
}

// FuzzParseManifest feeds arbitrary bytes to the manifest parser. It
// must never panic, and any count it accepts must be positive and
// survive a write-and-parse round trip.
func FuzzParseManifest(f *testing.F) {
	for _, n := range []int{1, 2, 16} {
		f.Add(manifestBody(n))
	}
	for _, s := range []string{
		"", "\n", manifestHeader, manifestHeader + "\n", manifestHeader + "\nsegments 0\n",
		manifestHeader + "\nsegments -3\n", manifestHeader + "\nsegments 99999999999999999999\n",
		manifestHeader + "\nsegments 2\nsegments 3\n", "ams-corpus-manifest v2\nsegments 2\n",
		"  " + manifestHeader + "  \n  segments 4  \n\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := parseManifest(data)
		if err != nil {
			return
		}
		if n <= 0 {
			t.Fatalf("accepted non-positive segment count %d", n)
		}
		if back, err := parseManifest(manifestBody(n)); err != nil || back != n {
			t.Fatalf("count %d round-tripped to %d (%v)", n, back, err)
		}
	})
}
