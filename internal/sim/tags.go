package sim

import "genmp/internal/xport"

// collTags is the tag space of the built-in collective primitives
// (AllToAll, AllGather, GatherTo, Bcast).
var collTags = xport.ReserveTags("sim/collective", 1<<30, 16)
