package cache

import (
	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
)

// bankHandle services a GetS (excl=false) or GetX (excl=true) that has
// arrived at an L3 bank. respond is invoked with the granted MESI state at
// the time the data (or upgrade ack) reaches the requesting tile. p (may be
// nil) is the requesting load's latency-attribution probe.
//
// Directory state is updated immediately and messages model the traffic and
// latency; per-line transient races are thereby serialized by the event
// loop, which preserves message counts — the quantity the paper measures.
func (s *System) bankHandle(bank int, la uint64, reqTile int, excl bool, l3kind stats.L3ReqKind, p *trace.LoadProbe, respond func(granted state, now event.Cycle)) {
	s.eng.Schedule(event.Cycle(s.cfg.L3.LatCycles), func(now event.Cycle) {
		s.st.L3Requests[l3kind]++
		l := s.banks[bank].lookup(la)
		if s.tr != nil {
			s.tr.CacheAccess(bank, 3, l != nil)
		}
		if l == nil {
			s.st.L3Misses++
			if s.tr != nil {
				s.tr.Emit(uint64(now), bank, trace.KindL3Miss, la, int64(reqTile), int64(l3kind))
			}
			if p != nil {
				p.DRAMStart = uint64(now)
				p.Level = trace.LevelDRAM
			}
			s.dramFill(bank, la, func() {
				if p != nil {
					p.DRAMEnd = uint64(s.eng.Now())
				}
				// Re-lookup: the fill installed the line.
				if fresh := s.banks[bank].lookup(la); fresh != nil {
					s.bankHitChecked(bank, fresh, la, reqTile, excl, respond)
				} else {
					// The freshly installed line was itself evicted by a
					// racing fill; respond as if granting E from memory.
					s.mesh.Send(bank, reqTile, stats.ClassData, lineSize, func(now event.Cycle) {
						respond(grantFor(excl, true), now)
					})
				}
			})
			return
		}
		s.st.L3Hits++
		if p != nil && p.Level == trace.LevelMerged {
			p.Level = trace.LevelL3
		}
		s.banks[bank].touch(l)
		s.bankHitChecked(bank, l, la, reqTile, excl, respond)
	})
}

func grantFor(excl, exclusiveOK bool) state {
	if excl {
		return stModified
	}
	if exclusiveOK {
		return stExclusive
	}
	return stShared
}

// bankHit applies the directory transition for a request hitting (or just
// filled into) the bank.
func (s *System) bankHit(bank int, l *line, la uint64, reqTile int, excl bool, respond func(state, event.Cycle)) {
	owner := int(l.owner)
	reqBit := uint64(1) << uint(reqTile)

	if excl {
		if s.bankWrite != nil {
			s.bankWrite(bank, la, reqTile)
		}
		granted := stModified
		upgrade := l.sharers&reqBit != 0
		// Invalidate all other sharers (inv + ack pairs).
		for t := 0; t < s.cfg.Tiles(); t++ {
			if t == reqTile || l.sharers&(1<<uint(t)) == 0 {
				continue
			}
			s.invalidatePrivate(t, la)
			s.mesh.Send(bank, t, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
			s.mesh.Send(t, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		}
		if owner >= 0 && owner != reqTile {
			// Owner forwards the (possibly dirty) data to the requester.
			s.ownerForward(bank, owner, la, true, func(now event.Cycle) {
				s.mesh.Send(owner, reqTile, stats.ClassData, lineSize, func(now event.Cycle) {
					respond(granted, now)
				})
			})
		} else if upgrade {
			// Requester already has the data: ownership ack only.
			s.mesh.Send(bank, reqTile, stats.ClassCtrlCoh, 0, func(now event.Cycle) {
				respond(granted, now)
			})
		} else {
			s.mesh.Send(bank, reqTile, stats.ClassData, lineSize, func(now event.Cycle) {
				respond(granted, now)
			})
		}
		l.sharers = 0
		l.owner = int16(reqTile)
		return
	}

	// GetS.
	if owner >= 0 && owner != reqTile {
		// Forward from the exclusive/modified owner; owner downgrades to S
		// and writes back if dirty.
		s.ownerForward(bank, owner, la, false, func(now event.Cycle) {
			s.mesh.Send(owner, reqTile, stats.ClassData, lineSize, func(now event.Cycle) {
				respond(stShared, now)
			})
		})
		l.owner = -1
		l.sharers |= (1 << uint(owner)) | reqBit
		return
	}
	exclusiveOK := l.sharers == 0 && owner < 0
	if exclusiveOK {
		l.owner = int16(reqTile)
	} else {
		l.sharers |= reqBit
	}
	s.mesh.Send(bank, reqTile, stats.ClassData, lineSize, func(now event.Cycle) {
		respond(grantFor(false, exclusiveOK), now)
	})
}

// ownerForward sends the forward request to the current owner, downgrading
// (invalidate=false) or invalidating (invalidate=true) its private copy, and
// invokes then once the forward request has reached the owner and its L2 has
// been accessed. A dirty copy also writes back to the bank.
func (s *System) ownerForward(bank, owner int, la uint64, invalidate bool, then func(event.Cycle)) {
	s.mesh.Send(bank, owner, stats.ClassCtrlCoh, 0, func(event.Cycle) {
		s.eng.Schedule(event.Cycle(s.cfg.L2.LatCycles), func(now event.Cycle) {
			tc := s.tiles[owner]
			dirty := false
			if l2 := tc.l2.lookup(la); l2 != nil {
				dirty = l2.dirty || l2.state == stModified
				if l1 := tc.l1.lookup(la); l1 != nil && l1.dirty {
					dirty = true
				}
				if invalidate {
					s.invalidatePrivate(owner, la)
				} else {
					l2.state = stShared
					l2.dirty = false
				}
			}
			if dirty {
				// Writeback to the bank so L3 holds the latest data.
				if dl := s.banks[bank].lookup(la); dl != nil {
					dl.dirty = true
				}
				s.mesh.Send(owner, bank, stats.ClassData, lineSize, func(event.Cycle) {})
			}
			then(now)
		})
	})
}

// invalidatePrivate drops a line from a tile's L1 and L2 (back-invalidation
// or remote invalidation). State change is immediate.
func (s *System) invalidatePrivate(tile int, la uint64) {
	tc := s.tiles[tile]
	if l1 := tc.l1.lookup(la); l1 != nil {
		tc.l1.invalidate(l1)
	}
	if l2 := tc.l2.lookup(la); l2 != nil {
		tc.l2.invalidate(l2)
	}
}

// dramFill fetches la from memory into the bank, evicting an L3 victim
// (with inclusive back-invalidation and dirty writeback), then calls cont.
// Concurrent fills of the same line at the same bank merge into one memory
// access (the bank's fill MSHR).
func (s *System) dramFill(bank int, la uint64, cont func()) {
	if waiters, busy := s.fillMSHR[bank][la]; busy {
		s.fillMSHR[bank][la] = append(waiters, cont)
		return
	}
	s.fillMSHR[bank][la] = []func(){cont}
	ctrl := s.dram.CtrlFor(la)
	ctrlTile := s.dram.CtrlTile(ctrl)
	s.mesh.Send(bank, ctrlTile, stats.ClassCtrlReq, 8, func(event.Cycle) {
		s.dram.Access(la, lineSize, false, func(event.Cycle) {
			s.mesh.Send(ctrlTile, bank, stats.ClassData, lineSize, func(event.Cycle) {
				s.installL3(bank, la)
				waiters := s.fillMSHR[bank][la]
				delete(s.fillMSHR[bank], la)
				for _, w := range waiters {
					w()
				}
			})
		})
	})
}

// installL3 places la into the bank, handling victim eviction.
func (s *System) installL3(bank int, la uint64) {
	arr := s.banks[bank]
	if arr.lookup(la) != nil {
		return // racing fill already installed it
	}
	slot := arr.victim(la)
	if slot.valid {
		s.evictL3(bank, slot)
	}
	arr.insert(slot, la)
}

// evictL3 removes a victim from a bank: inclusive back-invalidation of all
// private copies (invalidation + ack traffic), dirty-owner writeback, and a
// DRAM write if the line is dirty.
func (s *System) evictL3(bank int, victim *line) {
	va := victim.addr
	dirty := victim.dirty
	s.traceEvict("l3", bank, victim, s.eng.Now())
	if s.tr != nil {
		var a int64
		if dirty {
			a = 1
		}
		s.tr.Emit(uint64(s.eng.Now()), bank, trace.KindL3Evict, va, a, int64(victim.owner))
	}
	if owner := int(victim.owner); owner >= 0 {
		tc := s.tiles[owner]
		if l2 := tc.l2.lookup(va); l2 != nil && (l2.dirty || l2.state == stModified) {
			dirty = true
			s.mesh.Send(owner, bank, stats.ClassData, lineSize, func(event.Cycle) {})
		}
		s.invalidatePrivate(owner, va)
		s.mesh.Send(bank, owner, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		s.mesh.Send(owner, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	for t := 0; t < s.cfg.Tiles(); t++ {
		if victim.sharers&(1<<uint(t)) == 0 {
			continue
		}
		s.invalidatePrivate(t, va)
		s.mesh.Send(bank, t, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		s.mesh.Send(t, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	if dirty {
		ctrlTile := s.dram.CtrlTile(s.dram.CtrlFor(va))
		s.mesh.Send(bank, ctrlTile, stats.ClassData, lineSize, func(event.Cycle) {})
		s.dram.Access(va, lineSize, true, func(event.Cycle) {})
	}
	s.banks[bank].invalidate(victim)
}

// FloatRead services an SE_L3-issued stream read at a bank: a GetU access
// that never updates the sharer vector and responds directly to the
// requesting tile(s) — multicast when a confluence group shares the data.
// payloadBytes is the response payload (a full line, or a subline for
// indirect elements). onBankReady (may be nil) fires when the data is
// available at the bank (used by the operands table to chain indirect
// accesses); deliver fires once per destination at arrival.
func (s *System) FloatRead(bank int, la uint64, dsts []int, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) {
	s.eng.Schedule(event.Cycle(s.cfg.L3.LatCycles), func(now event.Cycle) {
		s.st.L3Requests[l3kind]++
		l := s.banks[bank].lookup(la)
		if s.chk != nil && l != nil {
			// GetU must never touch the sharer vector or ownership (§IV-A):
			// snapshot the entry and re-check once this handler has applied
			// whatever path it takes. Later demand accesses may legally
			// mutate the entry, so the window is exactly this event.
			s.chk.Trace(sanitize.Record{
				Cycle: uint64(now), Tile: dsts[0], Comp: "l3dir", Event: "getu",
				Key: la, A: int64(l.sharers), B: int64(l.owner),
			})
			ow, sh := l.owner, l.sharers
			defer func() {
				if l.owner != ow || l.sharers != sh {
					s.chk.Failf(la, "l3dir[%d]: GetU for line %#x mutated directory state: sharers %#x->%#x, owner %d->%d",
						bank, la, sh, l.sharers, ow, l.owner)
				}
			}()
		}
		send := func() {
			if onBankReady != nil {
				onBankReady(s.eng.Now())
			}
			s.mesh.Multicast(bank, dsts, stats.ClassData, payloadBytes, deliver)
		}
		if s.tr != nil {
			s.tr.CacheAccess(bank, 3, l != nil)
		}
		if l == nil {
			s.st.L3Misses++
			if s.tr != nil {
				s.tr.Emit(uint64(now), bank, trace.KindL3Miss, la, int64(dsts[0]), int64(l3kind))
			}
			s.dramFill(bank, la, send)
			return
		}
		s.st.L3Hits++
		s.banks[bank].touch(l)
		if o := int(l.owner); o >= 0 && !containsTile(dsts, o) {
			// Another L2 owns the line: it forwards the data without
			// changing its own state (Fig 12c).
			s.mesh.Send(bank, o, stats.ClassCtrlCoh, 0, func(event.Cycle) {
				s.eng.Schedule(event.Cycle(s.cfg.L2.LatCycles), func(now event.Cycle) {
					if onBankReady != nil {
						onBankReady(now)
					}
					s.mesh.Multicast(o, dsts, stats.ClassData, payloadBytes, deliver)
				})
			})
			return
		}
		send()
	})
}

// FloatReadAuto issues a stream read from the bank currently running the
// stream: if the line is homed elsewhere (a confluence member catching up
// after a merge), a request message forwards it to the home bank first.
func (s *System) FloatReadAuto(curBank int, la uint64, dsts []int, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) {
	home := s.cfg.HomeBank(la)
	if home == curBank {
		s.FloatRead(home, la, dsts, l3kind, payloadBytes, onBankReady, deliver)
		return
	}
	s.mesh.Send(curBank, home, stats.ClassCtrlReq, 8, func(event.Cycle) {
		s.FloatRead(home, la, dsts, l3kind, payloadBytes, onBankReady, deliver)
	})
}

// FloatIndirectRead routes an indirect element request from the bank running
// the stream (fromBank) to the element's home bank, which responds with a
// subline directly to the requesting tile (§IV-B).
func (s *System) FloatIndirectRead(fromBank int, la uint64, dst int, payloadBytes int, deliver func(now event.Cycle)) {
	toBank := s.cfg.HomeBank(la)
	run := func() {
		s.FloatRead(toBank, la, []int{dst}, stats.L3FloatIndirect, payloadBytes, nil,
			func(_ int, now event.Cycle) { deliver(now) })
	}
	if toBank == fromBank {
		run()
		return
	}
	s.mesh.Send(fromBank, toBank, stats.ClassCtrlReq, 8, func(event.Cycle) { run() })
}

func containsTile(ts []int, t int) bool {
	for _, v := range ts {
		if v == t {
			return true
		}
	}
	return false
}

// HomeBank exposes the NUCA mapping for stream engines.
func (s *System) HomeBank(addr uint64) int { return s.cfg.HomeBank(addr) }

// PrivateHas reports whether the tile's private caches currently hold the
// line (used by the float/sink policy to detect private-cache hits).
func (s *System) PrivateHas(tile int, addr uint64) bool {
	la := LineAddr(addr)
	tc := s.tiles[tile]
	if tc.l1.lookup(la) != nil {
		return true
	}
	l2 := tc.l2.lookup(la)
	return l2 != nil && l2.state != stInvalid
}
