package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ams/internal/zoo"
)

// A segmented corpus is one journal per shard under a shared directory:
//
//	dir/manifest        — segment count (so a reopen needs no flags)
//	dir/journal-0.log   — shard 0's write-ahead journal
//	dir/journal-0.log.snap
//	dir/journal-1.log
//	...
//
// Each segment is an ordinary Corpus: its writers never contend with
// another segment's, and crash replay opens all segments in parallel.

const (
	manifestName   = "manifest"
	manifestHeader = "ams-corpus-manifest v1"
)

// SegmentPath is the journal path of segment i under dir.
func SegmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%d.log", i))
}

// OpenDir opens (or creates) a directory of n journal segments. With
// n == 0 the count is read from the directory's manifest — the reopen
// path, where the caller should not need to remember the shard count.
// A count that contradicts an existing manifest is an error: segments
// cannot be re-partitioned in place. Options apply to each segment
// individually (MaxResident bounds residency per segment). Segments are
// opened concurrently, so replay of a crashed multi-segment corpus
// fans out across journals.
func OpenDir(z *zoo.Zoo, dir string, n int, opts Options) ([]*Corpus, error) {
	if n < 0 {
		return nil, fmt.Errorf("corpus: negative segment count %d", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create segment directory: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		have, perr := parseManifest(data)
		if perr != nil {
			return nil, fmt.Errorf("corpus: manifest %s: %w", mpath, perr)
		}
		if n == 0 {
			n = have
		}
		if n != have {
			return nil, fmt.Errorf("corpus: directory %s holds %d segments, asked to open %d", dir, have, n)
		}
	case os.IsNotExist(err):
		if n == 0 {
			n = 1
		}
		if werr := writeManifest(mpath, n); werr != nil {
			return nil, werr
		}
	default:
		return nil, fmt.Errorf("corpus: read manifest: %w", err)
	}

	segs := make([]*Corpus, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segs[i], errs[i] = Open(z, SegmentPath(dir, i), opts)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			for _, s := range segs {
				if s != nil {
					_ = s.Close()
				}
			}
			return nil, fmt.Errorf("corpus: segment %d: %w", i, e)
		}
	}
	return segs, nil
}

func parseManifest(data []byte) (int, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != manifestHeader {
		return 0, fmt.Errorf("unrecognized manifest format")
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "segments %d", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("bad segment count line %q", lines[1])
	}
	return n, nil
}

// manifestBody renders the manifest of an n-segment directory.
func manifestBody(n int) []byte {
	return fmt.Appendf(nil, "%s\nsegments %d\n", manifestHeader, n)
}

func writeManifest(path string, n int) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, manifestBody(n), 0o644); err != nil {
		return fmt.Errorf("corpus: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("corpus: install manifest: %w", err)
	}
	return nil
}
