package atomicio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	want := []byte(`{"hello":"world"}`)
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("perm = %o, want 644", perm)
	}
}

func TestWriteFileReplacesWithoutPartialStates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record")
	if err := WriteFile(path, []byte("old-complete-content"), 0o644); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatalf("replace write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "new" {
		t.Fatalf("read back %q, want %q", got, "new")
	}
	// No temporary files may survive a completed write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after write, want only the target: %v", len(entries), entries)
	}
}

func TestWriteFileMissingDirectoryFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "f")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded; want error")
	}
}

// TestWriteFileConcurrent hammers one path from many goroutines; under
// -race this also proves the helper shares no mutable state. Every read
// of the path mid-flight must see one of the complete payloads, never a
// prefix or a mix.
func TestWriteFileConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contended")
	const writers = 8
	payload := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("w%d-", i)), 512)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if err := WriteFile(path, payload(i), 0o644); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // first write not landed yet
			}
			t.Fatalf("ReadFile: %v", err)
		}
		ok := false
		for i := 0; i < writers; i++ {
			if bytes.Equal(data, payload(i)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("read a partial or mixed payload of %d bytes", len(data))
		}
	}
}
