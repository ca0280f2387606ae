//! Synthetic graph and query workload generation.
//!
//! The paper evaluates on OpenStreetMap exports of Germany (GY, 11.8 M
//! vertices) and Baden-Württemberg (BW, 1.8 M vertices) with hotspot query
//! workloads around the biggest cities. Those data sets are not available
//! here, so this crate generates the closest synthetic equivalent:
//! parametric road networks whose properties drive every
//! effect in the paper — population-weighted urban hotspots, low-degree
//! spatial topology, travel-time edge weights, and POI tags.
//!
//! It also provides small-world and preferential-attachment social graphs
//! for the paper's Application 2 (personalized social-network analysis),
//! and the hotspot query workload generator (SSSP / POI query streams in
//! batches, with the disturbance phase used in Figure 5).

#![forbid(unsafe_code)]

mod arrivals;
mod churn;
mod points;
mod queries;
mod road;
mod social;
mod tags;

pub use arrivals::{arrival_times, schedule_open_loop, ArrivalConfig, ArrivalPattern, TimedQuery};
pub use churn::{
    edge_churn, moves_a_minimum, road_closures, social_follows, ChurnConfig, TimedMutation,
};
pub use points::{generate_point_queries, PairSkew, PointQuerySpec, PointWorkloadConfig};
pub use queries::{QueryKind, QuerySpec, WorkloadConfig, WorkloadGenerator, WorkloadPhase};
pub use road::{City, RoadNetwork, RoadNetworkConfig, RoadNetworkGenerator};
pub use social::{generate_ba, generate_ws, BarabasiAlbertConfig, WattsStrogatzConfig};
pub use tags::assign_tags;
