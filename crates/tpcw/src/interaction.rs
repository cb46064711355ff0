//! The 14 TPC-W web interactions and their resource-demand profiles.

use std::fmt;

/// One of the 14 TPC-W web interactions.
///
/// Interactions split into a *browse* class (catalogue reads) and an
/// *order* class (cart and checkout); the traffic-mix definitions in
/// [`crate::Mix`] are stated in terms of that split.
///
/// # Example
///
/// ```
/// use tpcw::Interaction;
///
/// assert!(Interaction::BestSellers.is_browse());
/// assert!(Interaction::BuyConfirm.is_order());
/// assert_eq!(Interaction::ALL.len(), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Interaction {
    /// Store front page; entry point of every session.
    Home,
    /// Newly added catalogue items for one subject.
    NewProducts,
    /// Top-selling items — the most database-intensive read.
    BestSellers,
    /// One item's detail page.
    ProductDetail,
    /// Search form (static).
    SearchRequest,
    /// Search execution and result listing.
    SearchResults,
    /// View / update the shopping cart.
    ShoppingCart,
    /// Returning-customer identification / new-customer registration.
    CustomerRegistration,
    /// Order summary presented before purchase.
    BuyRequest,
    /// Purchase execution — the heaviest transaction.
    BuyConfirm,
    /// Order-status lookup form.
    OrderInquiry,
    /// Display of a previous order.
    OrderDisplay,
    /// Administrative item-update form.
    AdminRequest,
    /// Administrative item-update execution.
    AdminConfirm,
}

impl Interaction {
    /// All interactions in declaration order. The order is stable and is
    /// used as the row/column order of [`crate::MixMatrix`].
    pub const ALL: [Interaction; 14] = [
        Interaction::Home,
        Interaction::NewProducts,
        Interaction::BestSellers,
        Interaction::ProductDetail,
        Interaction::SearchRequest,
        Interaction::SearchResults,
        Interaction::ShoppingCart,
        Interaction::CustomerRegistration,
        Interaction::BuyRequest,
        Interaction::BuyConfirm,
        Interaction::OrderInquiry,
        Interaction::OrderDisplay,
        Interaction::AdminRequest,
        Interaction::AdminConfirm,
    ];

    /// Dense index in `0..14`, matching [`Interaction::ALL`], which lists
    /// the interactions in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The interaction at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 14`.
    pub fn from_index(index: usize) -> Interaction {
        Interaction::ALL[index]
    }

    /// `true` for the browse class (catalogue reads).
    pub fn is_browse(self) -> bool {
        matches!(
            self,
            Interaction::Home
                | Interaction::NewProducts
                | Interaction::BestSellers
                | Interaction::ProductDetail
                | Interaction::SearchRequest
                | Interaction::SearchResults
        )
    }

    /// `true` for the order class (cart, checkout, order status, admin).
    pub fn is_order(self) -> bool {
        !self.is_browse()
    }

    /// Per-tier resource demands of this interaction.
    ///
    /// The absolute numbers are calibrated to a mid-2000s LAMP stack
    /// (milliseconds of CPU per tier at zero load); what matters for the
    /// reproduction is their *relative* weight: `BestSellers` hammers the
    /// database, `BuyConfirm` the application tier and database
    /// transactionally, `Home`/`SearchRequest` are mostly web-tier work.
    pub fn demand(self) -> DemandProfile {
        // (web_us, app_us, db_us, db_queries, uses_session)
        let (web, app, db, queries, session) = match self {
            Interaction::Home => (2_500, 1_500, 800, 1, false),
            Interaction::NewProducts => (2_000, 3_500, 9_000, 2, false),
            Interaction::BestSellers => (2_000, 4_000, 26_000, 3, false),
            Interaction::ProductDetail => (2_200, 2_000, 3_000, 1, false),
            Interaction::SearchRequest => (1_800, 900, 0, 0, false),
            Interaction::SearchResults => (2_200, 4_500, 14_000, 2, false),
            Interaction::ShoppingCart => (2_400, 5_000, 6_000, 2, true),
            Interaction::CustomerRegistration => (2_200, 3_000, 2_500, 1, true),
            Interaction::BuyRequest => (2_400, 6_000, 8_000, 3, true),
            Interaction::BuyConfirm => (2_600, 9_000, 22_000, 5, true),
            Interaction::OrderInquiry => (1_800, 1_200, 0, 0, true),
            Interaction::OrderDisplay => (2_200, 3_500, 9_000, 2, true),
            Interaction::AdminRequest => (2_000, 2_000, 2_500, 1, false),
            Interaction::AdminConfirm => (2_400, 5_000, 16_000, 3, false),
        };
        DemandProfile {
            web_cpu_us: web,
            app_cpu_us: app,
            db_cpu_us: db,
            db_queries: queries,
            uses_session: session,
        }
    }
}

impl fmt::Display for Interaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// CPU demand an interaction places on each tier, at zero load, plus the
/// number of round trips it makes to the database.
///
/// # Example
///
/// ```
/// use tpcw::Interaction;
///
/// let d = Interaction::BestSellers.demand();
/// assert!(d.db_cpu_us > d.web_cpu_us); // DB-bound
/// assert!(d.total_cpu_us() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandProfile {
    /// Web-tier (Apache) CPU, microseconds.
    pub web_cpu_us: u64,
    /// Application-tier (Tomcat) CPU, microseconds.
    pub app_cpu_us: u64,
    /// Database-tier (MySQL) CPU, microseconds, across all queries.
    pub db_cpu_us: u64,
    /// Number of database round trips.
    pub db_queries: u32,
    /// Whether the interaction reads/writes the HTTP session object.
    pub uses_session: bool,
}

impl DemandProfile {
    /// Sum of the per-tier CPU demands.
    pub fn total_cpu_us(&self) -> u64 {
        self.web_cpu_us + self.app_cpu_us + self.db_cpu_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_14_distinct_interactions() {
        let mut set = std::collections::HashSet::new();
        for i in Interaction::ALL {
            set.insert(i);
        }
        assert_eq!(set.len(), 14);
    }

    #[test]
    fn index_round_trips() {
        for (k, i) in Interaction::ALL.iter().enumerate() {
            assert_eq!(i.index(), k);
            assert_eq!(Interaction::from_index(k), *i);
        }
    }

    #[test]
    fn class_split_is_6_browse_8_order() {
        let browse = Interaction::ALL.iter().filter(|i| i.is_browse()).count();
        assert_eq!(browse, 6);
        assert_eq!(Interaction::ALL.len() - browse, 8);
        for i in Interaction::ALL {
            assert_ne!(i.is_browse(), i.is_order());
        }
    }

    #[test]
    fn demands_are_positive_and_shaped() {
        for i in Interaction::ALL {
            let d = i.demand();
            assert!(d.web_cpu_us > 0, "{i} needs web CPU");
            assert!(d.total_cpu_us() > 0);
            assert_eq!(
                d.db_cpu_us == 0,
                d.db_queries == 0,
                "{i}: db time iff db queries"
            );
        }
        // Relative shapes the model depends on:
        assert!(Interaction::BestSellers.demand().db_cpu_us > Interaction::Home.demand().db_cpu_us);
        assert!(
            Interaction::BuyConfirm.demand().app_cpu_us
                > Interaction::SearchRequest.demand().app_cpu_us
        );
        assert!(Interaction::BuyConfirm.demand().uses_session);
        assert!(!Interaction::Home.demand().uses_session);
    }

    #[test]
    fn display_is_debug_name() {
        assert_eq!(Interaction::BuyConfirm.to_string(), "BuyConfirm");
    }
}
