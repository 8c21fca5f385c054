// Package atomicio writes files atomically: content lands in a
// temporary file in the destination directory, is fsynced, and is then
// renamed over the target, so readers never observe a truncated or
// half-written file — a crash mid-write leaves either the old content or
// none. Run manifests, benchmark reports and checkpoints all publish
// through this package; anything a later process resumes from or a
// dashboard ingests must never be torn.
package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile atomically replaces path with data. The temporary file is
// created in path's directory (renames across filesystems are not
// atomic), fsynced before the rename so the content is durable first,
// and removed on any failure. The directory itself is fsynced after the
// rename so the new directory entry is durable too: a checkpoint whose
// name vanishes on power loss defeats resume just as surely as torn
// content would.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteTo(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteTo atomically replaces path with whatever emit writes. It is
// WriteFile for callers that stream (JSON encoders, table writers)
// instead of materializing the content first. If emit returns an error,
// the target is untouched and the temporary file is removed.
func WriteTo(path string, perm os.FileMode, emit func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the target is only
	// ever touched by the final rename.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := emit(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	// Sync before rename: the rename must never publish a name whose
	// content is still only in the page cache.
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// The rename published the name to readers; now make the directory
	// entry durable. Unlike the content fsync above, failure here leaves
	// a valid file behind, but callers that promise crash-durable output
	// (checkpoints, manifests) must hear about it rather than find out at
	// the next power loss.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("atomicio: fsync %s after renaming %s: %w", dir, base, err)
	}
	return nil
}

// syncFile is the fsync behind syncDir; tests substitute failures to
// exercise the error paths without a faulty filesystem.
var syncFile = func(f *os.File) error { return f.Sync() }

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Filesystems that cannot fsync directories (EINVAL/ENOTSUP —
// the rename is still atomic for readers there) are tolerated; any
// other failure is real and reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		// The directory demonstrably exists (the rename just succeeded
		// in it); an unopenable directory is a platform that does not
		// support opening directories at all, not a durability failure.
		return nil
	}
	defer d.Close()
	if err := syncFile(d); err != nil && !syncUnsupported(err) {
		return err
	}
	return nil
}

// syncUnsupported reports whether an fsync error means "this filesystem
// cannot fsync directories" rather than "the fsync failed".
func syncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY) || errors.Is(err, syscall.EBADF)
}
