package atomicio

import (
	"bytes"
	"encoding/json"
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

type historyRecord struct {
	Name  string `json:"name"`
	Iters int    `json:"iters"`
}

func readHistory(t *testing.T, path string) []historyRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var got []historyRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("history does not parse: %v\n%s", err, data)
	}
	return got
}

// A missing or empty file starts a history; an existing one is extended
// in order, in the indented one-record-per-element layout.
func TestAppendJSONStartsAndExtendsHistory(t *testing.T) {
	for _, seed := range []struct {
		name string
		data []byte // nil = no file
	}{
		{"missing", nil},
		{"empty", []byte{}},
		{"whitespace", []byte("\n  \n")},
	} {
		t.Run(seed.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "history.json")
			if seed.data != nil {
				if err := os.WriteFile(path, seed.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			first := historyRecord{"a", 1}
			if err := AppendJSON(path, first); err != nil {
				t.Fatalf("AppendJSON on %s file: %v", seed.name, err)
			}
			if got := readHistory(t, path); len(got) != 1 || got[0] != first {
				t.Fatalf("history = %+v, want [%+v]", got, first)
			}
			second := historyRecord{"b", 2}
			if err := AppendJSON(path, second); err != nil {
				t.Fatalf("AppendJSON on existing history: %v", err)
			}
			if got := readHistory(t, path); len(got) != 2 || got[0] != first || got[1] != second {
				t.Fatalf("history = %+v, want [%+v %+v]", got, first, second)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := "[\n  {\n    \"name\": \"a\",\n    \"iters\": 1\n  },\n  {\n    \"name\": \"b\",\n    \"iters\": 2\n  }\n]\n"
			if string(data) != want {
				t.Fatalf("history layout:\n%s\nwant:\n%s", data, want)
			}
		})
	}
}

// A file that is not a JSON array is an error, and the append must leave
// it byte-for-byte as it was.
func TestAppendJSONCorruptHistoryUntouched(t *testing.T) {
	for _, corrupt := range []string{
		`[{"name":"a","iters":1},`, // truncated mid-write
		`{"name":"a","iters":1}`,   // an object, not an array
		"not json",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "history.json")
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := AppendJSON(path, historyRecord{"b", 2}); err == nil {
			t.Fatalf("AppendJSON on %q succeeded; want error", corrupt)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != corrupt {
			t.Fatalf("corrupt history rewritten: %q -> %q", corrupt, data)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries after a refused append, want only the history: %v", len(entries), entries)
		}
	}
}
