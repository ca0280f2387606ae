//! Runnable examples for the Q-Graph workspace; see the `[[bin]]` targets
//! (`quickstart`, `route_planning`, `social_circles`, `poi_search`,
//! `edge_cut_vs_query_cut`, `thread_qcut`, `serving`, `evolving`,
//! `point_queries`).

#![forbid(unsafe_code)]
