// The go tool ignores files whose names start with _, so the linter
// must neither type-check this one (it redeclares Append) nor report
// its os.Create.
package dataset

import "os"

func Append(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}
