package certd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"duopacity/internal/follow"
)

// ServeStreams accepts monitor-stream connections on ln until the
// listener closes (Drain closes it). Each connection is handled on its
// own goroutine; Drain waits for them.
func (s *Server) ServeStreams(ln net.Listener) error {
	// draining is guarded by s.mu. Holding it across the registration
	// orders this check against Drain: either Drain sees ln and closes
	// it, or this sees draining.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("certd: coordinator is draining")
	}
	s.streamMu.Lock()
	s.streamLns = append(s.streamLns, ln)
	s.streamMu.Unlock()
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil // listener closed (drain) — not an error
		}
		s.streams.Add(1)
		go func() {
			defer s.streams.Done()
			s.handleStream(conn)
		}()
	}
}

func (s *Server) closeStreamListeners() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for _, ln := range s.streamLns {
		_ = ln.Close()
	}
	s.streamLns = nil
}

func (s *Server) closeStreamConns() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

func (s *Server) trackConn(c net.Conn) func() {
	s.streamMu.Lock()
	s.conns[c] = struct{}{}
	s.streamMu.Unlock()
	return func() {
		s.streamMu.Lock()
		delete(s.conns, c)
		s.streamMu.Unlock()
	}
}

// handleStream runs one monitored stream: a follow.Session — the one
// behind ducheck -follow — fed from a bounded input queue, with the
// admission control, backpressure and wire protocol a network producer
// needs.
func (s *Server) handleStream(conn net.Conn) {
	defer conn.Close()
	defer s.trackConn(conn)()
	// The out-buffer must exceed the 32KB flush threshold below, or the
	// explicit flush (with its client-gone check) could never fire —
	// bufio would auto-flush first and swallow the error.
	out := bufio.NewWriterSize(conn, 64*1024)
	defer out.Flush()

	// Admission control: past MaxStreams the hello is refused outright —
	// the connection-level analog of HTTP 429. The producer sees an
	// explicit ERR, never a silently-slow server.
	if int(s.Metrics.StreamsOpen.Add(1)) > s.cfg.MaxStreams {
		s.Metrics.StreamsOpen.Add(-1)
		s.Metrics.StreamsRejected.Add(1)
		fmt.Fprintln(out, "ERR busy")
		return
	}
	defer s.Metrics.StreamsOpen.Add(-1)
	streamID := fmt.Sprintf("s%d", s.Metrics.StreamsTotal.Add(1))

	in := follow.NewScanner(conn)
	if !in.Scan() {
		if err := in.Err(); err != nil {
			fmt.Fprintf(out, "ERR read: %v\n", err)
		}
		return
	}
	h, err := follow.ParseHello(in.Text())
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	var echo io.Writer = out
	if h.Quiet {
		echo = nil
	}
	sess, err := follow.New(h.Config, echo, func(no int, err error) {
		fmt.Fprintf(out, "BAD %d %v\n", no, err)
	})
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(out, "OK %s\n", streamID)
	out.Flush()

	// The bounded input queue: the reader goroutine feeds it, this
	// goroutine drains it through the session. A full queue either
	// pauses the reader — TCP flow control then pushes back on the
	// producer, counted as a stall — or, on lossy streams, drops the
	// line, counted and reported. Memory per stream is queue depth plus
	// the monitors' retirement windows, independent of stream length.
	type inLine struct {
		no   int
		text string
	}
	queue := make(chan inLine, s.cfg.StreamQueue)
	consumerGone := make(chan struct{})
	defer close(consumerGone) // any early return unblocks a stalled reader
	var (
		dropped int
		readErr error // written before close(queue), read after the drain loop
	)
	go func() {
		defer close(queue)
		lineNo := 0
		for in.Scan() {
			lineNo++
			text := in.Text()
			if text == "END" {
				return
			}
			l := inLine{no: lineNo, text: text}
			select {
			case queue <- l:
			default:
				if h.Lossy {
					dropped++
					s.Metrics.StreamDropped.Add(1)
					continue
				}
				s.Metrics.StreamStalls.Add(1)
				select {
				case queue <- l:
				case <-consumerGone:
					return
				}
			}
		}
		if err := in.Err(); err != nil {
			readErr = follow.LineError(lineNo+1, err)
		}
	}()

	for l := range queue {
		if s.cfg.SlowAppend > 0 {
			time.Sleep(s.cfg.SlowAppend)
		}
		fed, err := sess.Line(l.no, l.text)
		s.Metrics.AppendNanos.Add(fed.AppendNanos)
		s.Metrics.StreamEvents.Add(int64(fed.Events))
		if fed.Bad {
			s.Metrics.StreamBad.Add(1)
		}
		if err != nil {
			// Fail the stream the way -strict fails the CLI: no final
			// verdicts. The deferred close(consumerGone) unblocks the reader.
			fmt.Fprintf(out, "ERR %v\n", err)
			return
		}
		if out.Buffered() > 32*1024 {
			if out.Flush() != nil {
				return // client gone
			}
		}
	}
	if readErr != nil {
		// The input died mid-stream (read error, or a line past
		// follow.MaxLineBytes): fail explicitly rather than emitting a
		// DONE that pretends the stream completed.
		fmt.Fprintf(out, "ERR read: %v\n", readErr)
		return
	}

	sess.Quarantine(out, "QUARANTINED ")
	done := sess.Summary(out)
	done.Dropped = dropped
	fmt.Fprintln(out, done)
}
