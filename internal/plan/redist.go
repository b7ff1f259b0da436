package plan

import "genmp/internal/xport"

// RedistTags is the tag reservation redistribution schedules mint from by
// default — the plan layer's tag discipline (central reservation, Validate
// checks containment and per-channel uniqueness, exactly as SweepTags'
// consumers do) extended to the redistribution phases compiled by
// internal/redist. Wrappers that must reproduce a historical schedule
// bit-for-bit (the dist halo exchange) pass their legacy spaces
// instead, so existing tag values on the wire are unchanged.
var RedistTags = xport.ReserveTags("plan/redist", 1<<27, 64)
