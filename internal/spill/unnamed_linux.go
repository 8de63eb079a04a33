package spill

import (
	"errors"
	"os"
	"syscall"
)

// oTmpfile is Linux's O_TMPFILE: __O_TMPFILE, the same bit on every
// architecture Go runs Linux on, with O_DIRECTORY, which is not. Package
// syscall's O_TMPFILE is 0x410000 wherever it is defined, which is wrong
// where O_DIRECTORY is 0x4000 (arm64, ppc64le).
const oTmpfile = 0o20000000 | syscall.O_DIRECTORY

// openUnnamed opens a file under dir that has no name (O_TMPFILE): it
// never shows in dir, and it goes with its last descriptor. A kernel or a
// file system that cannot open one is errors.ErrUnsupported.
func openUnnamed(dir string) (*os.File, error) {
	f, err := os.OpenFile(dir, os.O_RDWR|oTmpfile, 0o600)
	if errors.Is(err, syscall.EISDIR) || errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.EINVAL) {
		return nil, errors.ErrUnsupported
	}
	return f, err
}
