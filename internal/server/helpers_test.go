package server

import (
	"bytes"

	"dbtoaster/internal/stream"
)

// commit feeds events to the server the way a connection does: each is
// rendered as a delta line, parsed and admitted by a throw-away session,
// and the request committed.
func (s *Server) commit(evs []stream.Event) error {
	ss := newSession(s)
	ss.begin()
	var line []byte
	for i, ev := range evs {
		line = appendDelta(line[:0], ev.Op, ev.Relation, ev.Args)
		_, body, _ := bytes.Cut(bytes.TrimSpace(line), space)
		pev, err := ss.parser.parse(ev.Op, body, len(evs)-i)
		if err != nil {
			return err
		}
		ss.evs = append(ss.evs, pev)
	}
	return ss.commit(ss.evs)
}

func (s *Server) applyEvent(ev stream.Event) error { return s.commit([]stream.Event{ev}) }

func (s *Server) applyBatch(evs []stream.Event) error { return s.commit(evs) }
