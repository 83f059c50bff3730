// The module's root package is in scope too: it writes the files an
// export or a resume leaves, so a rename there must be injectable.
package seam

import "os"

func MoveAside(path string) error {
	return os.Rename(path+".tmp", path+".aside") // want `faultio-seam: direct os\.Rename bypasses`
}

// A read of the file it moved is not gated.
func Probe(path string) error {
	_, err := os.Stat(path + ".aside")
	return err
}
