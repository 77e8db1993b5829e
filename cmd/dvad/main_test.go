package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// dvad serves on an ephemeral port, answers a request, and on cancellation
// drains, GCs and prints its counters and exits 0.
func TestServeUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	args := []string{"-addr", "127.0.0.1:0", "-scale", "0.25", "-cache-dir", t.TempDir()}
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, args, io.Discard, pw)
		pw.Close()
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "dvad: serving on ") {
		t.Fatalf("first stderr line %q; exit %d", sc.Text(), <-code)
	}
	url := "http://" + strings.Fields(sc.Text())[3]

	resp, err := http.Post(url+"/v1/simulate", "application/json",
		strings.NewReader(`{"program":"TRFD","arch":"DVA","latency":50}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cycles"`)) {
		t.Fatalf("/v1/simulate: %s: %s", resp.Status, body)
	}

	cancel()
	var rest strings.Builder
	for sc.Scan() {
		rest.WriteString(sc.Text() + "\n")
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit %d:\n%s", c, rest.String())
	}
	for _, want := range []string{"draining in-flight requests", "dvad server", "Result cache"} {
		if !strings.Contains(rest.String(), want) {
			t.Errorf("shutdown output lacks %q:\n%s", want, rest.String())
		}
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("still serving after run returned")
	}
}

// -h exits 0, a bad flag value 2, and a listen failure 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-scale", "0"}, 2},
		{[]string{"-cache-verify", "NaN"}, 2},
		{[]string{"-max-concurrent", "-3"}, 2},
		{[]string{"-gc-interval", "-1s"}, 2},
		{[]string{"-addr", "127.0.0.1:-1", "-cache=off"}, 1},
	} {
		var errOut bytes.Buffer
		if code := run(context.Background(), tc.args, io.Discard, &errOut); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut.String())
		}
	}
}
