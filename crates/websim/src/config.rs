//! The eight performance-critical configuration parameters of Table 1.

use std::error::Error;
use std::fmt;

/// One of the eight tunable parameters (Table 1 of the paper).
///
/// The first four live in the web tier (Apache prefork), the last four in
/// the application tier (Tomcat).
///
/// # Example
///
/// ```
/// use websim::Param;
///
/// assert_eq!(Param::MaxClients.range(), (5, 600));
/// assert_eq!(Param::KeepaliveTimeout.default_value(), 15);
/// assert_eq!(Param::ALL.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Param {
    /// Apache `MaxClients`: maximum simultaneously serving worker
    /// processes.
    MaxClients,
    /// Apache `KeepAliveTimeout` in seconds: how long an idle connection
    /// holds its worker.
    KeepaliveTimeout,
    /// Apache `MinSpareServers`: lower bound on idle workers.
    MinSpareServers,
    /// Apache `MaxSpareServers`: upper bound on idle workers.
    MaxSpareServers,
    /// Tomcat `maxThreads`: maximum concurrently serving request threads.
    MaxThreads,
    /// Tomcat session timeout in minutes.
    SessionTimeout,
    /// Tomcat `minSpareThreads`.
    MinSpareThreads,
    /// Tomcat `maxSpareThreads`.
    MaxSpareThreads,
}

impl Param {
    /// All eight parameters in Table-1 order.
    pub const ALL: [Param; 8] = [
        Param::MaxClients,
        Param::KeepaliveTimeout,
        Param::MinSpareServers,
        Param::MaxSpareServers,
        Param::MaxThreads,
        Param::SessionTimeout,
        Param::MinSpareThreads,
        Param::MaxSpareThreads,
    ];

    /// Dense index in `0..8` matching [`Param::ALL`], which lists the
    /// parameters in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inclusive `(low, high)` tuning range from Table 1.
    ///
    /// (The conference PDF's table drops trailing zeros; the ranges here
    /// are the standard Apache/Tomcat ones the authors describe in the
    /// surrounding text: MaxClients and MaxThreads span `[5, 600]`.)
    pub fn range(self) -> (u32, u32) {
        match self {
            Param::MaxClients => (5, 600),
            Param::KeepaliveTimeout => (1, 21),
            Param::MinSpareServers => (5, 85),
            Param::MaxSpareServers => (15, 95),
            Param::MaxThreads => (5, 600),
            Param::SessionTimeout => (1, 35),
            Param::MinSpareThreads => (5, 85),
            Param::MaxSpareThreads => (15, 95),
        }
    }

    /// Table-1 default value.
    pub fn default_value(self) -> u32 {
        match self {
            Param::MaxClients => 150,
            Param::KeepaliveTimeout => 15,
            Param::MinSpareServers => 5,
            Param::MaxSpareServers => 15,
            Param::MaxThreads => 200,
            Param::SessionTimeout => 30,
            Param::MinSpareThreads => 5,
            Param::MaxSpareThreads => 50,
        }
    }

    /// Name as it appears in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Param::MaxClients => "MaxClients",
            Param::KeepaliveTimeout => "Keepalive timeout",
            Param::MinSpareServers => "MinSpareServers",
            Param::MaxSpareServers => "MaxSpareServers",
            Param::MaxThreads => "MaxThreads",
            Param::SessionTimeout => "Session timeout",
            Param::MinSpareThreads => "minSpareThreads",
            Param::MaxSpareThreads => "maxSpareThreads",
        }
    }

    /// Which tier the parameter configures.
    pub fn tier(self) -> &'static str {
        match self {
            Param::MaxClients
            | Param::KeepaliveTimeout
            | Param::MinSpareServers
            | Param::MaxSpareServers => "web server",
            _ => "application server",
        }
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error raised when a [`ServerConfig`] value is outside its Table-1
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending parameter.
    pub param: Param,
    /// The rejected value.
    pub value: u32,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.param.range();
        write!(
            f,
            "{} = {} outside range [{lo}, {hi}]",
            self.param, self.value
        )
    }
}

impl Error for ConfigError {}

/// A complete setting of the eight tunable parameters — one *state* of
/// the RAC Markov decision process.
///
/// # Example
///
/// ```
/// use websim::{Param, ServerConfig};
///
/// let dflt = ServerConfig::default();
/// assert_eq!(dflt.get(Param::MaxClients), 150);
///
/// let tuned = dflt.with(Param::MaxClients, 400).unwrap();
/// assert_eq!(tuned.get(Param::MaxClients), 400);
/// assert!(dflt.with(Param::KeepaliveTimeout, 99).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerConfig {
    values: [u32; 8],
}

impl ServerConfig {
    /// Creates a configuration from raw values in [`Param::ALL`] order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for the first out-of-range value.
    pub fn from_values(values: [u32; 8]) -> Result<Self, ConfigError> {
        for (param, &value) in Param::ALL.iter().zip(&values) {
            let (lo, hi) = param.range();
            if value < lo || value > hi {
                return Err(ConfigError {
                    param: *param,
                    value,
                });
            }
        }
        Ok(ServerConfig { values })
    }

    /// Raw values in [`Param::ALL`] order.
    pub fn values(&self) -> [u32; 8] {
        self.values
    }

    /// Reads one parameter.
    pub fn get(&self, param: Param) -> u32 {
        self.values[param.index()]
    }

    /// Returns a copy with one parameter changed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `value` is outside the parameter's
    /// range.
    pub fn with(&self, param: Param, value: u32) -> Result<Self, ConfigError> {
        let (lo, hi) = param.range();
        if value < lo || value > hi {
            return Err(ConfigError { param, value });
        }
        let mut values = self.values;
        values[param.index()] = value;
        Ok(ServerConfig { values })
    }

    /// `MaxClients`.
    pub fn max_clients(&self) -> u32 {
        self.get(Param::MaxClients)
    }

    /// Keep-alive timeout in seconds.
    pub fn keepalive_timeout_secs(&self) -> u32 {
        self.get(Param::KeepaliveTimeout)
    }

    /// `MinSpareServers`.
    pub fn min_spare_servers(&self) -> u32 {
        self.get(Param::MinSpareServers)
    }

    /// Effective `MaxSpareServers`: Apache forces it above
    /// `MinSpareServers` when misconfigured, and so do we.
    pub fn max_spare_servers(&self) -> u32 {
        self.get(Param::MaxSpareServers)
            .max(self.min_spare_servers() + 1)
    }

    /// Tomcat `maxThreads`.
    pub fn max_threads(&self) -> u32 {
        self.get(Param::MaxThreads)
    }

    /// Session timeout in minutes.
    pub fn session_timeout_mins(&self) -> u32 {
        self.get(Param::SessionTimeout)
    }

    /// `minSpareThreads`.
    pub fn min_spare_threads(&self) -> u32 {
        self.get(Param::MinSpareThreads)
    }

    /// Effective `maxSpareThreads` (forced above the minimum, as Tomcat
    /// does).
    pub fn max_spare_threads(&self) -> u32 {
        self.get(Param::MaxSpareThreads)
            .max(self.min_spare_threads() + 1)
    }
}

impl Default for ServerConfig {
    /// The Table-1 default configuration.
    fn default() -> Self {
        let mut values = [0u32; 8];
        for param in Param::ALL {
            values[param.index()] = param.default_value();
        }
        ServerConfig { values }
    }
}

impl fmt::Display for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MaxClients={} KeepAlive={}s MinSpare={} MaxSpare={} MaxThreads={} SessionTimeout={}m minSpareT={} maxSpareT={}",
            self.max_clients(),
            self.keepalive_timeout_secs(),
            self.min_spare_servers(),
            self.get(Param::MaxSpareServers),
            self.max_threads(),
            self.session_timeout_mins(),
            self.min_spare_threads(),
            self.get(Param::MaxSpareThreads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults_are_table_1() {
        let c = ServerConfig::default();
        assert_eq!(c.max_clients(), 150);
        assert_eq!(c.keepalive_timeout_secs(), 15);
        assert_eq!(c.min_spare_servers(), 5);
        assert_eq!(c.get(Param::MaxSpareServers), 15);
        assert_eq!(c.max_threads(), 200);
        assert_eq!(c.session_timeout_mins(), 30);
        assert_eq!(c.min_spare_threads(), 5);
        assert_eq!(c.get(Param::MaxSpareThreads), 50);
    }

    #[test]
    fn defaults_are_in_range() {
        for p in Param::ALL {
            let (lo, hi) = p.range();
            let d = p.default_value();
            assert!(d >= lo && d <= hi, "{p} default {d} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn with_validates() {
        let c = ServerConfig::default();
        assert!(c.with(Param::MaxClients, 4).is_err());
        assert!(c.with(Param::MaxClients, 601).is_err());
        assert!(c.with(Param::MaxClients, 5).is_ok());
        assert!(c.with(Param::MaxClients, 600).is_ok());
    }

    #[test]
    fn from_values_reports_offender() {
        let mut v = ServerConfig::default().values();
        v[Param::SessionTimeout.index()] = 99;
        let err = ServerConfig::from_values(v).unwrap_err();
        assert_eq!(err.param, Param::SessionTimeout);
        assert_eq!(err.value, 99);
        assert!(err.to_string().contains("Session timeout"));
    }

    #[test]
    fn max_spare_forced_above_min() {
        let c = ServerConfig::default()
            .with(Param::MinSpareServers, 80)
            .unwrap()
            .with(Param::MaxSpareServers, 15)
            .unwrap();
        assert_eq!(c.max_spare_servers(), 81);
        let t = ServerConfig::default()
            .with(Param::MinSpareThreads, 60)
            .unwrap()
            .with(Param::MaxSpareThreads, 20)
            .unwrap();
        assert_eq!(t.max_spare_threads(), 61);
    }

    #[test]
    fn param_metadata() {
        assert_eq!(Param::MaxClients.tier(), "web server");
        assert_eq!(Param::MaxThreads.tier(), "application server");
        assert_eq!(Param::MaxClients.to_string(), "MaxClients");
        for (k, p) in Param::ALL.iter().enumerate() {
            assert_eq!(p.index(), k);
        }
    }

    #[test]
    fn display_mentions_all_values() {
        let s = ServerConfig::default().to_string();
        for needle in ["MaxClients=150", "KeepAlive=15s", "MaxThreads=200"] {
            assert!(s.contains(needle), "{s}");
        }
    }

    proptest! {
        #[test]
        fn prop_with_get_round_trip(idx in 0usize..8, step in 0u32..1000) {
            let p = Param::ALL[idx];
            let (lo, hi) = p.range();
            let v = lo + step % (hi - lo + 1);
            let c = ServerConfig::default().with(p, v).unwrap();
            prop_assert_eq!(c.get(p), v);
            // Other parameters untouched.
            for q in Param::ALL {
                if q != p {
                    prop_assert_eq!(c.get(q), q.default_value());
                }
            }
        }
    }
}
