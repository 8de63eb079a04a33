package main

import (
	"strings"
	"testing"
)

func TestExpIDs(t *testing.T) {
	for exp, want := range map[string]string{
		"all":           "all",
		"fig5, fig6":    "fig5,fig6",
		" table2 ,fig9": "table2,fig9",
	} {
		if got := strings.Join(expIDs(exp), ","); got != want {
			t.Errorf("expIDs(%q) = %q, want %q", exp, got, want)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("8, 16,32")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseInts = %v", got)
		}
	}
	if _, err := parseInts("8,x"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Fatal("zero accepted")
	}
	if _, err := parseInts(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := parseInts(",,"); err == nil {
		t.Fatal("only separators accepted")
	}
}
