//go:build unix

package silkmoth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"silkmoth/internal/wal"
)

// TestDataDirHasOneOwner: a data directory belongs to one open engine. A
// second NewEngine or NewEngineFromSaved on it fails with
// ErrDataDirLocked, naming the directory, and leaves the owner working; once
// the owner closes, the directory opens again with everything the owner
// acknowledged.
func TestDataDirHasOneOwner(t *testing.T) {
	cfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: t.TempDir()}
	owner, err := NewEngine(durableCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(durableCorpus(), cfg); !errors.Is(err, ErrDataDirLocked) || !strings.Contains(err.Error(), cfg.DataDir) {
		t.Fatalf("second NewEngine: %v, want ErrDataDirLocked naming %s", err, cfg.DataDir)
	}
	if _, err := NewEngineFromSaved(strings.NewReader(""), cfg); !errors.Is(err, ErrDataDirLocked) {
		t.Fatalf("NewEngineFromSaved on a held directory: %v, want ErrDataDirLocked", err)
	}
	if err := owner.Add([]Set{{Name: "late", Elements: []string{"Lake St Boston"}}}); err != nil {
		t.Fatalf("the owner stopped working after a refused opener: %v", err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer reopened.Close()
	if got, want := reopened.Len(), len(durableCorpus())+1; got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
}

// TestDataDirReopensAfterCrash: the lock dies with its process. A child
// process — this test binary, run again — opens a directory, acknowledges
// an Add and exits without Close; the next open is not refused and holds
// the Add.
func TestDataDirReopensAfterCrash(t *testing.T) {
	cfg := Config{Similarity: Jaccard, Delta: 0.5}
	late := Set{Name: "late", Elements: []string{"Lake St Boston"}}
	if dir := os.Getenv("SILKMOTH_CRASHING_OWNER_DIR"); dir != "" {
		cfg.DataDir = dir
		e, err := NewEngine(durableCorpus(), cfg)
		if err == nil {
			err = e.Add([]Set{late})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(0) // no Close: the process dies holding the directory
	}
	cfg.DataDir = t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestDataDirReopensAfterCrash$")
	child.Env = append(os.Environ(), "SILKMOTH_CRASHING_OWNER_DIR="+cfg.DataDir)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("crashing owner: %v\n%s", err, out)
	}
	e, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatalf("reopen after the owner died: %v", err)
	}
	defer e.Close()
	if got, want := e.Len(), len(durableCorpus())+1; got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
}

// TestFailedOpenReleasesDataDir: every way NewEngine can fail after
// locking the directory — the bootstrap build, snapshot recovery, and the
// log replay after it — closes the store, so the next opener meets the same
// failure, or succeeds, instead of ErrDataDirLocked.
func TestFailedOpenReleasesDataDir(t *testing.T) {
	t.Run("build", func(t *testing.T) {
		cfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: t.TempDir()}
		bad := cfg
		bad.Delta = math.NaN()
		if _, err := NewEngine(durableCorpus(), bad); err == nil || errors.Is(err, ErrDataDirLocked) {
			t.Fatalf("NewEngine with δ = NaN: %v, want a config error", err)
		}
		e, err := NewEngine(durableCorpus(), cfg)
		if err != nil {
			t.Fatalf("open after a failed build: %v", err)
		}
		e.Close()
	})
	corrupt := func(t *testing.T, glob string, damage func([]byte)) Config {
		t.Helper()
		cfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: t.TempDir()}
		e, err := NewEngine(durableCorpus(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"I", "J", "K"} {
			if err := e.Add([]Set{{Name: name, Elements: []string{"Lake St Boston"}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(cfg.DataDir, glob))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: %v, %v", glob, files, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		damage(data)
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	failsTwice := func(t *testing.T, cfg Config) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if e, err := NewEngine(nil, cfg); err == nil {
				e.Close()
				t.Fatalf("open %d over damaged state succeeded", i)
			} else if errors.Is(err, ErrDataDirLocked) {
				t.Fatalf("open %d: %v: the failed open before it still holds the directory", i, err)
			}
		}
	}
	t.Run("snapshot", func(t *testing.T) {
		failsTwice(t, corrupt(t, "snap-*.snap", func(b []byte) { b[len(b)/2] ^= 0xFF }))
	})
	t.Run("replay", func(t *testing.T) {
		// The middle record becomes a frame that checksums, so it is no
		// torn tail, but decodes to no operation.
		failsTwice(t, corrupt(t, "wal-*.log", func(b []byte) {
			_, first, err := wal.DecodeRecord(b)
			if err != nil {
				t.Fatal(err)
			}
			frame := b[first:] // [len u32][crc32 u32][payload]
			payload := frame[8 : 8+binary.LittleEndian.Uint32(frame[0:4])]
			for i := range payload {
				payload[i] = 0xFF
			}
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		}))
	})
}
