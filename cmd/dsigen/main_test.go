package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckRealImageFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // the flag the error names; "" accepts
	}{
		{nil, ""},
		{[]string{"-n", "5848", "-order", "8"}, ""},
		{[]string{"-seed", "3", "-capacity", "100"}, ""},
		{[]string{"-n", "20000"}, "-n"},
		{[]string{"-order", "10"}, "-order"},
		{[]string{"-n", "5848", "-order", "10"}, "-order"},
	} {
		fs := flag.NewFlagSet("dsigen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 10000, "")
		fs.Uint("order", 8, "")
		fs.Int64("seed", 1, "")
		fs.Int("capacity", 64, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := checkRealImageFlags(fs, 1)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.args, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
