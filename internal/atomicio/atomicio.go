// Package atomicio writes files so that readers — including readers in
// other processes, and readers that come back after a crash — never see a
// partial file. Every write goes to a fresh temporary file in the target
// directory, is flushed to stable storage, and is renamed over the
// destination; rename within one directory is atomic on POSIX, so the
// path always holds either the old complete content or the new complete
// content. Stress TSVs and the distributed result store write through
// here, so an interrupted run can truncate nothing it did not create.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data: write to a temporary
// file in the same directory, fsync it, rename it over path, then fsync
// the directory so the rename itself survives a crash. On any error the
// temporary file is removed and path is left untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup must not remove a renamed file
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename is durable.
// Filesystems that refuse to sync directories (some network mounts) are
// tolerated: the rename already happened, only crash durability is
// weakened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best-effort; see above
	return nil
}
