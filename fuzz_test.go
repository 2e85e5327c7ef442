package ams

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseSLO checks that ParseSLO never panics and that every spec it
// accepts describes a usable objective: a quantile strictly inside
// (0, 1), a positive finite threshold, and a non-empty name that the
// same body parses to again under an explicit name.
func FuzzParseSLO(f *testing.F) {
	for _, spec := range []string{
		"p99<400ms", "tight:p50<50ms", "p99<250ms", "checkout:p95<1s",
		"p99.9<1.5s", "p100<1s", "p0<1s", "p99<0s", "p99<-1s", "99<1s",
		"p99", "", ":p99<1s", "a:b:p99<1s", "pNaN<1s", "p1e1<2h",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseSLO(spec)
		if err != nil {
			return
		}
		if !(o.Quantile > 0 && o.Quantile < 1) {
			t.Fatalf("%q: quantile %v outside (0, 1)", spec, o.Quantile)
		}
		if !(o.ThresholdSec > 0) || math.IsInf(o.ThresholdSec, 0) {
			t.Fatalf("%q: threshold %v s is not positive and finite", spec, o.ThresholdSec)
		}
		if o.Name == "" || strings.Contains(o.Name, ":") {
			t.Fatalf("%q: name %q", spec, o.Name)
		}
		body := spec
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			body = spec[i+1:]
		}
		named, err := ParseSLO("n:" + body)
		if err != nil || named.Name != "n" || named.Quantile != o.Quantile || named.ThresholdSec != o.ThresholdSec {
			t.Fatalf("%q parses to %+v, but named as %q to %+v, %v", spec, o, "n:"+body, named, err)
		}
	})
}

// TestParseSLORejectsNonFiniteQuantile: ParseFloat accepts "NaN" and
// "Inf", and NaN fails every comparison, so a range check written as
// two rejections let "pNaN" through as a NaN quantile.
func TestParseSLORejectsNonFiniteQuantile(t *testing.T) {
	for _, spec := range []string{"pNaN<1s", "pnan<1s", "pInf<1s", "p+Inf<1s", "p-Inf<1s"} {
		if o, err := ParseSLO(spec); err == nil {
			t.Fatalf("%q accepted as %+v", spec, o)
		}
	}
}
