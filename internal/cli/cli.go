// Package cli holds what the cmd/ binaries share: flag-parsing helpers
// and the one observed run behind their -trace and -debug flags.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated list of integers ("64,128,256").
// Empty fields are skipped; an empty string yields nil.
func ParseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("cli: bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
