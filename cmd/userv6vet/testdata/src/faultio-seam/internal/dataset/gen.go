//go:build ignore

// A helper the go tool never builds: its build constraint excludes it,
// so the linter must neither type-check it (it redeclares Export) nor
// report its os.Create.
package dataset

import "os"

func Export(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}
