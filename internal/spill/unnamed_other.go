//go:build !linux

package spill

import (
	"errors"
	"os"
)

// openUnnamed is errors.ErrUnsupported: only Linux opens a file with no
// name, and elsewhere NewScratch names it for the moment it takes to
// unlink it.
func openUnnamed(string) (*os.File, error) { return nil, errors.ErrUnsupported }
