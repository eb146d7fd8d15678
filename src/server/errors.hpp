// Stable error codes of the simulation server — the service-level
// counterpart of machine::kDescErrorCodes. Every error body the HTTP
// layer returns, and every failed session operation, starts with one of
// these bracketed codes; clients and tests dispatch on the code, never
// on the prose after it. Add new codes at the end, never rename.
#pragma once

namespace mbcosim::server {

inline constexpr const char* kSrvErrorCodes[] = {
    "[srv-bad-request]",      // malformed HTTP request or request JSON
    "[srv-bad-machine]",      // machine description rejected at build time
    "[srv-busy]",             // admission control: no session/worker capacity
    "[srv-unknown-session]",  // no session with that id (or already killed)
    "[srv-running]",          // operation requires a stopped (idle) session
    "[srv-not-running]",      // pause with no run in flight
    "[srv-never-ran]",        // checkpoint of a session that never ran
    "[srv-ckpt]",             // checkpoint/restore image rejected (wraps ckpt::*)
    "[srv-debug]",            // debug port could not be opened
    "[srv-io]",               // transport I/O failed mid-response
    "[srv-journal-io]",       // state dir / journal file unreadable or unwritable
    "[srv-journal-version]",  // state dir written by an incompatible format
    "[srv-journal-corrupt]",  // journal entry unparseable (skipped at recovery)
    "[srv-deadline]",         // wall-clock or cycle deadline exceeded
    "[srv-deadlock]",         // machine deadlock diagnosis (terminal stop state)
    "[srv-draining]",         // daemon is draining; no new work admitted
};

}  // namespace mbcosim::server
