//! From CSV to SQL in three calls — the commodity experience Naumann (§4.6)
//! says databases still lack ("whoever has recently tried to ... load a few
//! simple CSV files into it knows firsthand").
//!
//! ```sh
//! cargo run --release --example csv_to_sql
//! ```

use backbone_core::Database;

const CITIES: &str = "\
city,country,population,area_km2,coastal
Tokyo,Japan,37400068,2194,true
Delhi,India,29399141,1484,false
Shanghai,China,26317104,6341,true
\"São Paulo\",Brazil,21846507,1521,false
Mexico City,Mexico,21671908,1485,false
Cairo,Egypt,20484965,3085,false
Mumbai,India,20185064,603,true
Beijing,China,20035455,16411,false
Dhaka,Bangladesh,20283552,306,false
Osaka,Japan,19222665,225,true
";

fn main() {
    let db = Database::new();

    // 1. Load: schema inferred (Utf8, Utf8, Int64, Int64, Bool).
    let rows = db.load_csv("cities", CITIES).expect("load");
    let batch = db.sql("SELECT * FROM cities").expect("batch");
    println!("loaded {rows} rows; inferred schema:");
    for f in batch.schema().fields() {
        println!("  {:<12} {}", f.name, f.data_type);
    }

    // 2. Query it with SQL immediately.
    println!("\nsql> densest coastal cities");
    let out = db
        .sql(
            "SELECT city, population / area_km2 AS density \
             FROM cities WHERE coastal = TRUE ORDER BY density DESC LIMIT 3",
        )
        .expect("query");
    for i in 0..out.num_rows() {
        let row = out.row(i);
        println!(
            "  {:<12} {:>10.0} people/km2",
            row[0],
            row[1].as_float().unwrap_or(0.0)
        );
    }

    println!("\nsql> population by country");
    let out = db
        .sql(
            "SELECT country, SUM(population) AS total, COUNT(*) AS cities \
             FROM cities GROUP BY country ORDER BY total DESC",
        )
        .expect("query");
    for i in 0..out.num_rows() {
        let row = out.row(i);
        println!("  {:<12} {:>12} ({} cities)", row[0], row[1], row[2]);
    }

    // 3. Round-trip back out.
    let exported = db.to_csv("cities").expect("export");
    println!(
        "\nexported {} bytes of CSV (unicode preserved: {})",
        exported.len(),
        exported.contains("São Paulo")
    );
}
