//! Model types shared by every solver in this crate.

use crate::error::MvaError;

/// What kind of service a station provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StationKind {
    /// A queueing station with a fixed number of servers. Jobs contend for
    /// the servers; queueing delay appears once all servers are busy.
    Queueing {
        /// Number of parallel servers (`>= 1`).
        servers: usize,
    },
    /// An infinite-server ("delay") station: jobs never queue. Think-time
    /// style resources.
    Delay,
}

/// A service station of a closed queueing network.
///
/// `demands[c]` is the *service demand* of class `c` per passage through the
/// station, i.e. visit ratio × service time, expressed in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    name: String,
    kind: StationKind,
    demands: Vec<f64>,
}

impl Station {
    /// Creates a queueing station with `servers` parallel servers.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_mva::Station;
    /// let st = Station::queueing("db", 2, vec![0.010, 0.025]);
    /// assert_eq!(st.servers(), 2);
    /// ```
    pub fn queueing(name: impl Into<String>, servers: usize, demands: Vec<f64>) -> Self {
        Station {
            name: name.into(),
            kind: StationKind::Queueing { servers },
            demands,
        }
    }

    /// Creates an infinite-server (delay) station.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_mva::Station;
    /// let st = Station::delay("think", vec![5.0]);
    /// assert_eq!(st.servers(), usize::MAX);
    /// ```
    pub fn delay(name: impl Into<String>, demands: Vec<f64>) -> Self {
        Station {
            name: name.into(),
            kind: StationKind::Delay,
            demands,
        }
    }

    /// Station name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Station kind.
    pub(crate) fn kind(&self) -> StationKind {
        self.kind
    }

    /// Number of servers; `usize::MAX` for delay stations.
    pub fn servers(&self) -> usize {
        match self.kind {
            StationKind::Queueing { servers } => servers,
            StationKind::Delay => usize::MAX,
        }
    }

    /// Service demand of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn demand(&self, class: usize) -> f64 {
        self.demands[class]
    }
}

/// A closed workload class: a fixed population of jobs cycling through the
/// network with an optional think time between cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    name: String,
    population: usize,
    think_time: f64,
}

impl ClassSpec {
    /// Creates a class with `population` jobs and a mean `think_time`
    /// (seconds) spent at an implicit delay station between cycles.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_mva::ClassSpec;
    /// let users = ClassSpec::new("browsers", 1000, 7.0);
    /// assert_eq!(users.population(), 1000);
    /// ```
    pub fn new(name: impl Into<String>, population: usize, think_time: f64) -> Self {
        ClassSpec {
            name: name.into(),
            population,
            think_time,
        }
    }

    /// Number of jobs in the class.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Mean think time between cycles (seconds).
    pub fn think_time(&self) -> f64 {
        self.think_time
    }
}

/// A validated closed multi-class queueing network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    stations: Vec<Station>,
    classes: Vec<ClassSpec>,
}

impl ClosedNetwork {
    /// Builds a network, validating dimensions and parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::DemandDimensionMismatch`] if any station's demand
    /// vector length differs from the number of classes, and
    /// [`MvaError::InvalidParameter`] for negative/NaN demands or think
    /// times, zero-server queueing stations, or an empty class list.
    pub fn new(stations: Vec<Station>, classes: Vec<ClassSpec>) -> Result<Self, MvaError> {
        if classes.is_empty() {
            return Err(MvaError::InvalidParameter {
                what: "network must have at least one class".into(),
            });
        }
        for c in &classes {
            if !c.think_time.is_finite() || c.think_time < 0.0 {
                return Err(MvaError::InvalidParameter {
                    what: format!("class `{}` has invalid think time {}", c.name, c.think_time),
                });
            }
        }
        for s in &stations {
            if s.demands.len() != classes.len() {
                return Err(MvaError::DemandDimensionMismatch {
                    station: s.name.clone(),
                    got: s.demands.len(),
                    expected: classes.len(),
                });
            }
            if let StationKind::Queueing { servers } = s.kind {
                if servers == 0 {
                    return Err(MvaError::InvalidParameter {
                        what: format!("station `{}` has zero servers", s.name),
                    });
                }
            }
            for (&d, c) in s.demands.iter().zip(&classes) {
                if !d.is_finite() || d < 0.0 {
                    return Err(MvaError::InvalidParameter {
                        what: format!(
                            "station `{}` demand for class `{}` is invalid ({d})",
                            s.name, c.name
                        ),
                    });
                }
            }
        }
        Ok(ClosedNetwork { stations, classes })
    }

    /// Stations of the network.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Classes of the network.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Number of stations.
    pub(crate) fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Number of classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

/// Solver output: per-class and per-station performance metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Per-class throughput (jobs/second).
    pub throughput: Vec<f64>,
    /// Per-class response time across all stations, excluding think time
    /// (seconds).
    pub response_time: Vec<f64>,
    /// `queue_length[k][c]` — mean number of class-`c` jobs at station `k`
    /// (queued plus in service).
    pub queue_length: Vec<Vec<f64>>,
    /// `utilization[k]` — fraction of station `k` servers that are busy,
    /// in `[0, 1]` for queueing stations (total busy servers / servers).
    pub utilization: Vec<f64>,
    /// `residence[k][c]` — mean residence time of class-`c` jobs per passage
    /// through station `k` (seconds).
    pub residence: Vec<Vec<f64>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_dimension_mismatch() {
        let err = ClosedNetwork::new(
            vec![Station::queueing("s", 1, vec![0.1])],
            vec![ClassSpec::new("a", 1, 0.0), ClassSpec::new("b", 1, 0.0)],
        )
        .unwrap_err();
        assert!(matches!(err, MvaError::DemandDimensionMismatch { .. }));
    }

    #[test]
    fn rejects_negative_demand() {
        let err = ClosedNetwork::new(
            vec![Station::queueing("s", 1, vec![-0.1])],
            vec![ClassSpec::new("a", 1, 0.0)],
        )
        .unwrap_err();
        assert!(matches!(err, MvaError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_zero_servers() {
        let err = ClosedNetwork::new(
            vec![Station::queueing("s", 0, vec![0.1])],
            vec![ClassSpec::new("a", 1, 0.0)],
        )
        .unwrap_err();
        assert!(matches!(err, MvaError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_empty_classes() {
        let err = ClosedNetwork::new(vec![], vec![]).unwrap_err();
        assert!(matches!(err, MvaError::InvalidParameter { .. }));
    }

    #[test]
    fn accessors_work() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 2, vec![0.2]),
                Station::delay("net", vec![0.05]),
            ],
            vec![ClassSpec::new("users", 10, 3.0)],
        )
        .unwrap();
        assert_eq!(net.num_stations(), 2);
        assert_eq!(net.num_classes(), 1);
        assert_eq!(net.classes()[0].population(), 10);
        assert_eq!(net.stations()[0].servers(), 2);
        assert_eq!(net.stations()[1].servers(), usize::MAX);
        assert_eq!(net.classes()[0].think_time(), 3.0);
        assert_eq!(net.stations()[0].demand(0), 0.2);
    }
}
