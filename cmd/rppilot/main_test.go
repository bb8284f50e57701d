package main

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestReadyThenExitOnStdinEOF drives run end to end: it prints the ready
// line with the control endpoint's host:port, that endpoint accepts a TCP
// connection, and run returns 0 once stdin reaches EOF. There is no golden:
// the port is ephemeral.
func TestReadyThenExitOnStdinEOF(t *testing.T) {
	stdinR, stdinW := io.Pipe()
	stdoutR, stdoutW := io.Pipe()
	var stderr strings.Builder
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-uid", "pilot.test", "-platform", "delta", "-nodes", "1"}, stdinR, stdoutW, &stderr)
		stdoutW.Close()
	}()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdoutR)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	var line string
	select {
	case l, ok := <-lines:
		if !ok {
			t.Fatalf("run ended before the ready line: exit %d, stderr %q", <-done, stderr.String())
		}
		line = l
	case <-time.After(30 * time.Second):
		t.Fatal("no ready line from run")
	}
	addr, ok := strings.CutPrefix(line, "RPPILOT_READY ")
	if !ok {
		t.Fatalf("first line %q, want \"RPPILOT_READY <host:port>\"", line)
	}
	if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" {
		t.Fatalf("ready address %q: host %q, %v; want a 127.0.0.1 host:port", addr, host, err)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("control endpoint %s: %v", addr, err)
	}
	conn.Close()

	stdinW.Close()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after stdin EOF, want 0 (stderr %q)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after stdin EOF")
	}
	for l := range lines {
		t.Errorf("unexpected output after the ready line: %q", l)
	}
}

// TestRejectsBadConfig: an unknown platform or a clock compression that is
// not a finite positive number exits non-zero with a diagnostic on stderr,
// before anything listens or is printed on stdout.
func TestRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "nosuch"}, `unknown platform "nosuch"`},
		{[]string{"-scale", "-1"}, "scale -1"},
		{[]string{"-scale", "NaN"}, "scale NaN"},
		{[]string{"-scale", "Inf"}, "scale +Inf"},
		{[]string{"-scale", "fast"}, `invalid value "fast" for flag -scale`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, strings.NewReader(""), &stdout, &stderr)
			if code == 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, stderr %q; want non-zero and a diagnostic containing %q", code, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed %q before failing", stdout.String())
			}
		})
	}
}
