package server

import "dbtoaster/internal/stream"

// commit feeds events to the server the way a connection does after
// parsing them, through a throw-away session.
func (s *Server) commit(evs []stream.Event) error { return newSession(s).commit(evs) }

func (s *Server) applyEvent(ev stream.Event) error { return s.commit([]stream.Event{ev}) }

func (s *Server) applyBatch(evs []stream.Event) error { return s.commit(evs) }
