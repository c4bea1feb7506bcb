package state

import (
	"io"
	"os"
)

// WindowSize is the window a scanner reads a file through.
const WindowSize = windowSize

// ScanWindow is a scanner over the size bytes src holds, read as ScanFile
// reads a file but through a window of window bytes.
func ScanWindow(src io.ReaderAt, size int64, window int) (*Scanner, error) {
	return (&Scanner{src: src, size: int(size), window: window}).head()
}

// ScanFileThrough is ScanFile with every read of the file made through
// wrap, so that a test can fail it.
func ScanFileThrough(path string, wrap func(io.ReaderAt) io.ReaderAt) (*Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	var s *Scanner
	if err == nil {
		s, err = ScanWindow(wrap(f), info.Size(), windowSize)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s.path, s.f = path, f
	return s, nil
}

// WindowCap is the capacity of the scanner's window.
func (s *Scanner) WindowCap() int { return cap(s.win) }

// SpareCap is the capacity of the spare buffer, 0 while it is lent.
func SpareCap() int {
	spare.Lock()
	defer spare.Unlock()
	return cap(spare.buf)
}

// Err returns the journal's sticky error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
