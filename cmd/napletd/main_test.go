package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"naplet/internal/behaviors"
)

func TestParseLaunch(t *testing.T) {
	cases := []struct {
		spec    string
		wantID  string
		wantErr bool
		check   func(t *testing.T, b any)
	}{
		{spec: "e1:echo", wantID: "e1", check: func(t *testing.T, b any) {
			if _, ok := b.(*behaviors.Echo); !ok {
				t.Fatalf("type %T", b)
			}
		}},
		{spec: "e2:echo:maxconns=3", wantID: "e2", check: func(t *testing.T, b any) {
			if e := b.(*behaviors.Echo); e.MaxConns != 3 {
				t.Fatalf("maxconns = %d", e.MaxConns)
			}
		}},
		{spec: "p1:pinger:target=bob,count=7,interval=5", wantID: "p1", check: func(t *testing.T, b any) {
			p := b.(*behaviors.Pinger)
			if p.Target != "bob" || p.Count != 7 || p.IntervalMs != 5 {
				t.Fatalf("pinger = %+v", p)
			}
		}},
		{spec: "r1:roamer:target=bob,docks=a:1;b:2,msgs=4", wantID: "r1", check: func(t *testing.T, b any) {
			r := b.(*behaviors.Roamer)
			if r.Target != "bob" || len(r.Docks) != 2 || r.Docks[1] != "b:2" || r.MsgsPerHop != 4 {
				t.Fatalf("roamer = %+v", r)
			}
		}},
		{spec: "m1:maillog:expect=9", wantID: "m1", check: func(t *testing.T, b any) {
			if m := b.(*behaviors.MailLogger); m.Expect != 9 {
				t.Fatalf("maillog = %+v", m)
			}
		}},
		{spec: "noseparator", wantErr: true},
		{spec: "x:unknownkind", wantErr: true},
		{spec: "p2:pinger", wantErr: true},                // pinger needs a target
		{spec: "r2:roamer:docks=a", wantErr: true},        // roamer needs a target
		{spec: "p3:pinger:target=bob,bad", wantErr: true}, // malformed kv
	}
	for _, c := range cases {
		id, b, err := parseLaunch(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if id != c.wantID {
			t.Errorf("%q: id = %q", c.spec, id)
		}
		if c.check != nil {
			c.check(t, b)
		}
	}
}

func TestParseLaunchDefaults(t *testing.T) {
	_, b, err := parseLaunch("p:pinger:target=x,count=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	// Unparseable numbers fall back to defaults rather than failing.
	if p := b.(*behaviors.Pinger); p.Count != 5 {
		t.Fatalf("count = %d, want default 5", p.Count)
	}
}

// A napletd invocation in the docs is either a command line — napletd as
// the command word, after an optional prompt or comment marker — or an
// inline code span that starts with it. Log excerpts ("napletd: host up")
// and other commands that merely name the binary match neither.
var (
	napletdCommandLine = regexp.MustCompile(`(?m)^\s*(?://\s*)?(?:\$\s+)?(?:\S*/)?napletd\s+(.*)$`)
	napletdCodeSpan    = regexp.MustCompile("`(?:[^`\\s]*/)?napletd\\s+([^`]*)`")
	flagToken          = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	// A trailing backslash continues the command on the next line.
	continuation = regexp.MustCompile(`\\\n\s*(?://)?`)
)

// TestDocumentedFlagsExist fails when a napletd invocation shown in the
// docs uses a flag the binary does not register, so renaming or removing a
// flag cannot leave the demos behind.
func TestDocumentedFlagsExist(t *testing.T) {
	for _, path := range []string{
		"../../README.md",
		"../../DESIGN.md",
		"../../.claude/skills/verify/SKILL.md",
		"main.go",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if path == "main.go" {
			text, _, _ = strings.Cut(text, "\npackage main")
		}
		text = continuation.ReplaceAllString(text, " ")
		invocations := append(napletdCommandLine.FindAllStringSubmatch(text, -1),
			napletdCodeSpan.FindAllStringSubmatch(text, -1)...)
		if len(invocations) == 0 {
			t.Errorf("%s: no napletd invocation found; the scan has lost track of the docs", path)
		}
		for _, inv := range invocations {
			for _, m := range flagToken.FindAllStringSubmatch(inv[1], -1) {
				if flag.Lookup(m[1]) == nil {
					t.Errorf("%s: `napletd %s` uses -%s, which napletd does not register", path, inv[1], m[1])
				}
			}
		}
	}
}
